// Command chimera is the virtual data system command-line client: it
// composes VDL into a durable virtual data catalog, answers discovery
// queries, prints lineage reports and invalidation sets, and plans and
// estimates materialization requests. insert loads each file as one
// program through the loader vdcd serves POST /v1/vdl with
// (vds.ApplyProgram), so -catalog DIR and -server URL store the same.
//
// Usage:
//
//	chimera -catalog DIR insert file.vdl...
//	chimera -server URL insert file.vdl...
//	chimera -catalog DIR search -kind dataset 'derived and attr.owner = "annis"'
//	chimera -catalog DIR lineage DATASET
//	chimera -catalog DIR invalidate DATASET
//	chimera -catalog DIR plan TARGET
//	chimera -catalog DIR estimate -hosts 16 TARGET
//	chimera -catalog DIR stats
//	chimera migrate -dir DIR       (convert a directory an earlier build wrote)
//	chimera xml file.vdl           (convert VDL to its XML form)
//	chimera print file.vdl         (parse and re-print canonical VDL)
package main

import (
	"context"
	"flag"
	"fmt"
	"maps"
	"os"
	"strings"

	"time"

	"chimera/internal/catalog"
	"chimera/internal/dag"
	"chimera/internal/dtype"
	"chimera/internal/estimator"
	"chimera/internal/executor"
	"chimera/internal/migrate"
	"chimera/internal/obs"
	"chimera/internal/query"
	"chimera/internal/schema"
	"chimera/internal/vdl"
	"chimera/internal/vds"
)

// tracer is non-nil when -trace is set; run() hands it to the executor
// and main writes the Chrome trace file on exit.
var tracer *obs.Tracer

func main() {
	catDir := flag.String("catalog", "", "durable catalog directory (created if missing)")
	server := flag.String("server", "", "remote catalog service URL (alternative to -catalog)")
	tracePath := flag.String("trace", "", "write a Chrome trace of executed work to this file (run command)")
	flag.Usage = usage
	flag.Parse()
	if *tracePath != "" {
		tracer = obs.NewTracer()
	}
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	cmd, rest := args[0], args[1:]

	if *server != "" {
		if err := remoteCommand(vds.NewClient(*server), cmd, rest); err != nil {
			fail("%v", err)
		}
		return
	}

	var err error
	switch cmd {
	case "xml", "print":
		err = convert(cmd, rest)
	case "migrate":
		err = migrateDir(rest)
	case "insert", "search", "lineage", "invalidate", "plan", "estimate", "stats", "run", "annotate":
		if *catDir == "" {
			fail("command %q needs -catalog DIR", cmd)
		}
		var cat *catalog.Catalog
		cat, err = catalog.Open(*catDir, dtype.StandardRegistry(), catalog.Options{})
		if err != nil {
			break
		}
		defer cat.Close()
		switch cmd {
		case "insert":
			err = insert(cat, rest)
		case "search":
			err = search(cat, rest)
		case "lineage":
			err = lineage(cat, rest)
		case "invalidate":
			err = invalidate(cat, rest)
		case "plan":
			err = plan(cat, rest)
		case "estimate":
			err = estimate(cat, rest)
		case "run":
			err = run(cat, rest)
		case "annotate":
			err = annotate(cat, rest)
		case "stats":
			st := cat.Stats()
			fmt.Printf("datasets=%d transformations=%d derivations=%d invocations=%d replicas=%d\n",
				st.Datasets, st.Transformations, st.Derivations, st.Invocations, st.Replicas)
		}
		if err == nil {
			err = cat.Snapshot()
		}
	default:
		fail("unknown command %q", cmd)
	}
	if tracer != nil {
		if werr := tracer.WriteChromeTraceFile(*tracePath); werr != nil {
			fail("write trace: %v", werr)
		}
		fmt.Printf("wrote trace to %s (open in chrome://tracing or ui.perfetto.dev)\n", *tracePath)
	}
	if err != nil {
		fail("%v", err)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `chimera — virtual data system client

  chimera -catalog DIR insert FILE.vdl...
  chimera -catalog DIR search -kind dataset|transformation|derivation QUERY
  chimera -catalog DIR lineage DATASET
  chimera -catalog DIR invalidate DATASET
  chimera -catalog DIR plan TARGET
  chimera -catalog DIR estimate [-hosts N] TARGET
  chimera [-trace out.json] -catalog DIR run [-workspace DIR] [-retries N] TARGET...
  chimera -catalog DIR annotate DATASET KEY=VALUE
  chimera -catalog DIR stats
  chimera migrate -dir DIR
  chimera xml FILE.vdl
  chimera print FILE.vdl

With -server URL instead of -catalog DIR, insert/search/lineage/stats
operate against a running vdcd catalog service.`)
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "chimera: "+format+"\n", args...)
	os.Exit(1)
}

// migrateDir is `chimera migrate -dir DIR` (internal/migrate), seeded
// with the registry chimera and vdcd open catalogs with.
func migrateDir(args []string) error {
	fs := flag.NewFlagSet("migrate", flag.ContinueOnError)
	dir := fs.String("dir", "", "catalog directory to convert")
	if err := fs.Parse(args); err != nil || *dir == "" || fs.NArg() > 0 {
		return fmt.Errorf("usage: chimera migrate -dir DIR")
	}
	switch converted, err := migrate.Dir(*dir, dtype.StandardRegistry()); {
	case err != nil:
		return err
	case converted:
		fmt.Printf("%s: migrated\n", *dir)
	default:
		fmt.Printf("%s: nothing to migrate\n", *dir)
	}
	return nil
}

func convert(mode string, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("%s needs exactly one FILE.vdl", mode)
	}
	src, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}
	prog, err := vdl.Parse(string(src))
	if err != nil {
		return err
	}
	if mode == "xml" {
		data, err := vdl.MarshalXML(prog)
		if err != nil {
			return err
		}
		fmt.Println(string(data))
		return nil
	}
	fmt.Print(vdl.Print(prog))
	return nil
}

// insert loads each file into the local catalog as one program.
func insert(cat *catalog.Catalog, files []string) error {
	return insertFiles(files, func(src string) error {
		prog, err := vdl.Parse(src)
		if err == nil {
			_, err = vds.ApplyProgram(cat, prog)
		}
		return err
	})
}

// insertFiles hands each file's source to load, which applies it as one
// program, locally or over the wire.
func insertFiles(files []string, load func(src string) error) error {
	if len(files) == 0 {
		return fmt.Errorf("insert needs at least one FILE.vdl")
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err == nil {
			err = load(string(src))
		}
		if err != nil {
			return err
		}
		fmt.Printf("inserted %s\n", f)
	}
	return nil
}

func search(cat *catalog.Catalog, args []string) error {
	fs := flag.NewFlagSet("search", flag.ContinueOnError)
	kind := fs.String("kind", "dataset", "dataset, transformation or derivation")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("search needs exactly one QUERY")
	}
	q := fs.Arg(0)
	var k query.Kind
	switch *kind {
	case "dataset":
		k = query.KDataset
	case "transformation":
		k = query.KTransformation
	case "derivation":
		k = query.KDerivation
	default:
		return fmt.Errorf("unknown kind %q", *kind)
	}
	res, err := query.Search(cat, k, q)
	if err != nil {
		return err
	}
	for _, ds := range res.Datasets {
		state := "materialized"
		if !cat.Materialized(ds.Name) {
			state = "virtual"
		}
		fmt.Printf("dataset %-30s type=%-20s %s\n", ds.Name, ds.Type, state)
	}
	for _, tr := range res.Transformations {
		fmt.Printf("transformation %-30s kind=%s args=%d\n", tr.Ref(), tr.Kind, len(tr.Args))
	}
	for _, dv := range res.Derivations {
		fmt.Printf("derivation %-36s tr=%s\n", dv.ID, dv.TR)
	}
	return nil
}

func lineage(cat *catalog.Catalog, args []string) error {
	fs := flag.NewFlagSet("lineage", flag.ContinueOnError)
	dot := fs.Bool("dot", false, "emit GraphViz DOT instead of text")
	if err := fs.Parse(args); err != nil {
		return err
	}
	args = fs.Args()
	if len(args) != 1 {
		return fmt.Errorf("lineage needs exactly one DATASET")
	}
	rep, err := cat.Lineage(args[0])
	if err != nil {
		return err
	}
	if *dot {
		fmt.Print(rep.DOT())
		return nil
	}
	if rep.Primary {
		fmt.Printf("%s is primary data (no recorded producer)\n", rep.Dataset)
		return nil
	}
	fmt.Printf("lineage of %s:\n", rep.Dataset)
	for _, step := range rep.Steps {
		fmt.Printf("  depth %d: %s  tr=%s\n", step.Depth, step.Derivation.ID, step.TR)
		fmt.Printf("           inputs=%s outputs=%s\n", strings.Join(step.Inputs, ","), strings.Join(step.Outputs, ","))
		for _, iv := range step.Invocations {
			fmt.Printf("           run %s on %s/%s exit=%d elapsed=%s\n",
				iv.ID, iv.Site, iv.Host, iv.ExitCode, iv.Duration())
		}
	}
	fmt.Printf("primary sources: %s\n", strings.Join(rep.PrimarySources, ", "))
	return nil
}

func invalidate(cat *catalog.Catalog, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("invalidate needs exactly one DATASET")
	}
	cl, err := cat.Invalidate(args[0])
	if err != nil {
		return err
	}
	fmt.Printf("recompute %d datasets via %d derivations:\n", len(cl.Datasets), len(cl.Derivations))
	for _, d := range cl.Datasets {
		fmt.Printf("  %s\n", d)
	}
	return nil
}

func plan(cat *catalog.Catalog, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("plan needs exactly one TARGET")
	}
	dvs, err := cat.MaterializationPlan(args[0], assumePrimary)
	if err != nil {
		return err
	}
	if len(dvs) == 0 {
		fmt.Printf("%s is already materialized; nothing to do\n", args[0])
		return nil
	}
	fmt.Printf("materializing %s requires %d derivations (dependency order):\n", args[0], len(dvs))
	for i, dv := range dvs {
		fmt.Printf("  %3d. %s  tr=%s\n", i+1, dv.ID, dv.TR)
	}
	return nil
}

func estimate(cat *catalog.Catalog, args []string) error {
	fs := flag.NewFlagSet("estimate", flag.ContinueOnError)
	hosts := fs.Int("hosts", 1, "hosts available for parallel execution")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("estimate needs exactly one TARGET")
	}
	dvs, err := cat.MaterializationPlan(fs.Arg(0), assumePrimary)
	if err != nil {
		return err
	}
	g, err := dag.Build(dvs, cat.Resolver())
	if err != nil {
		return err
	}
	est := estimator.New(60)
	if err := est.LoadCatalog(cat); err != nil {
		return err
	}
	e := est.EstimateGraph(g, *hosts, nil)
	fmt.Printf("plan: %d derivations, total work %.0fs, critical path %.0fs\n",
		g.Len(), e.TotalWork, e.CriticalPath)
	fmt.Printf("estimated makespan on %d host(s): %.0fs (history-backed: %v)\n",
		*hosts, e.Makespan, e.Confident)
	return nil
}

// run materializes targets by executing the planned derivations as
// real local processes under the POSIX model (transformation Exec +
// argument templates), recording invocations in the catalog.
func run(cat *catalog.Catalog, args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	workspace := fs.String("workspace", ".", "directory holding dataset files")
	retries := fs.Int("retries", 0, "per-node retry budget")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("run needs at least one TARGET")
	}
	var pending []schema.Derivation
	seen := map[string]bool{}
	for _, target := range fs.Args() {
		dvs, err := cat.MaterializationPlan(target, assumePrimary)
		if err != nil {
			return err
		}
		if len(dvs) == 0 {
			fmt.Printf("%s: already materialized\n", target)
			continue
		}
		for _, dv := range dvs {
			if !seen[dv.ID] {
				seen[dv.ID] = true
				pending = append(pending, dv)
			}
		}
	}
	if len(pending) == 0 {
		return nil
	}
	g, err := dag.Build(pending, cat.Resolver())
	if err != nil {
		return err
	}
	drv := executor.NewLocalDriver(*workspace)
	drv.Resolve = cat.Resolver()
	drv.ExecFallback = true
	ex := &executor.Executor{
		Driver:     drv,
		Catalog:    cat,
		Trace:      tracer,
		MaxRetries: *retries,
		Epoch:      time.Now().UTC(),
		Assign: func(*dag.Node) (executor.Placement, error) {
			return executor.Placement{Site: "local"}, nil
		},
		OnEvent: func(ev executor.Event) {
			if ev.Kind == "done" || ev.Kind == "fail" {
				fmt.Printf("  %s %s (%.2fs)\n", ev.Kind, ev.Node, ev.Result.End-ev.Result.Start)
			}
		},
	}
	rep, err := ex.Run(g)
	if err != nil {
		return err
	}
	fmt.Printf("completed %d, failed %d, blocked %d in %.2fs\n",
		rep.Completed, rep.Failed, rep.Blocked, rep.Makespan)
	if !rep.Succeeded() {
		return fmt.Errorf("workflow incomplete")
	}
	return nil
}

// annotate attaches user-defined metadata to a dataset — the
// documentation facet.
func annotate(cat *catalog.Catalog, args []string) error {
	if len(args) != 2 || !strings.Contains(args[1], "=") {
		return fmt.Errorf("annotate needs DATASET KEY=VALUE")
	}
	ds, err := cat.Dataset(args[0])
	if err != nil {
		return err
	}
	kv := strings.SplitN(args[1], "=", 2)
	// ds.Attrs is the catalog's own map: change a copy.
	ds.Attrs = maps.Clone(ds.Attrs)
	if ds.Attrs == nil {
		ds.Attrs = schema.Attributes{}
	}
	ds.Attrs[kv[0]] = kv[1]
	if err := cat.UpdateDataset(ds); err != nil {
		return err
	}
	fmt.Printf("annotated %s: %s=%s\n", ds.Name, kv[0], kv[1])
	return nil
}

// assumePrimary treats underived data as stageable for planning.
func assumePrimary(v *catalog.View, ds string) bool {
	if v.Materialized(ds) {
		return true
	}
	rec, ok := v.Dataset(ds)
	return ok && rec.CreatedBy == ""
}

// remoteCommand runs the subset of commands that operate against a
// shared catalog service (§8's enterprise-scale deployment) instead of
// a local directory.
func remoteCommand(client *vds.Client, cmd string, args []string) error {
	switch cmd {
	case "insert":
		return insertFiles(args, func(src string) error { return client.PostVDL(context.Background(), src) })
	case "search":
		fs := flag.NewFlagSet("search", flag.ContinueOnError)
		kind := fs.String("kind", "dataset", "dataset, transformation or derivation")
		if err := fs.Parse(args); err != nil {
			return err
		}
		if fs.NArg() != 1 {
			return fmt.Errorf("search needs exactly one QUERY")
		}
		switch *kind {
		case "dataset":
			res, err := client.SearchDatasets(fs.Arg(0))
			if err != nil {
				return err
			}
			for _, ds := range res {
				fmt.Printf("dataset %-30s type=%s\n", ds.Name, ds.Type)
			}
		case "transformation":
			res, err := client.SearchTransformations(fs.Arg(0))
			if err != nil {
				return err
			}
			for _, tr := range res {
				fmt.Printf("transformation %-30s kind=%s\n", tr.Ref(), tr.Kind)
			}
		case "derivation":
			res, err := client.SearchDerivations(fs.Arg(0))
			if err != nil {
				return err
			}
			for _, dv := range res {
				fmt.Printf("derivation %-36s tr=%s\n", dv.ID, dv.TR)
			}
		default:
			return fmt.Errorf("unknown kind %q", *kind)
		}
		return nil
	case "lineage":
		if len(args) != 1 {
			return fmt.Errorf("lineage needs exactly one DATASET")
		}
		rep, err := client.Lineage(args[0])
		if err != nil {
			return err
		}
		if rep.Primary {
			fmt.Printf("%s is primary data\n", rep.Dataset)
			return nil
		}
		fmt.Printf("lineage of %s:\n", rep.Dataset)
		for _, step := range rep.Steps {
			fmt.Printf("  depth %d: %s  tr=%s inputs=%s\n",
				step.Depth, step.Derivation.ID, step.TR, strings.Join(step.Inputs, ","))
		}
		fmt.Printf("primary sources: %s\n", strings.Join(rep.PrimarySources, ", "))
		return nil
	case "stats":
		info, err := client.Info()
		if err != nil {
			return err
		}
		st := info.Stats
		fmt.Printf("catalog %q: datasets=%d transformations=%d derivations=%d invocations=%d replicas=%d\n",
			info.Name, st.Datasets, st.Transformations, st.Derivations, st.Invocations, st.Replicas)
		return nil
	default:
		return fmt.Errorf("command %q is not available against -server (use insert, search, lineage or stats)", cmd)
	}
}
