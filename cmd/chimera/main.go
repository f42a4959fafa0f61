// Command chimera is the virtual data system command-line client: it
// composes VDL into a durable virtual data catalog, answers discovery
// queries, prints lineage reports and invalidation sets, and plans,
// estimates and runs materialization requests (usage lists the
// commands). insert loads each file as one program through the loader
// vdcd serves POST /v1/vdl with (vds.ApplyProgram), so -catalog DIR and
// -server URL store the same. plan, estimate and run are the command
// line of core.System, the one request path, over the directory opened
// (core.NewWithCatalog); run turns on the driver's POSIX fallback.
//
// With -server URL, insert, search, lineage and stats print the lines
// they print locally, through the same printers, except that search has
// no materialized/virtual column: a search reply does not carry one.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"strings"

	"chimera/internal/catalog"
	"chimera/internal/core"
	"chimera/internal/dtype"
	"chimera/internal/migrate"
	"chimera/internal/obs"
	"chimera/internal/query"
	"chimera/internal/schema"
	"chimera/internal/vdl"
	"chimera/internal/vds"
)

// tracer is non-nil when -trace is set; run() hands it to the executor
// through its context and main writes the Chrome trace file on exit.
var tracer *obs.Tracer

// localCommands run against the catalog directory -catalog names.
var localCommands = map[string]func(*catalog.Catalog, []string) error{
	"insert": insert, "search": search, "lineage": lineage, "invalidate": invalidate,
	"plan": plan, "estimate": estimate, "run": run, "annotate": annotate,
	"stats": func(cat *catalog.Catalog, _ []string) error { printStats(os.Stdout, cat.Stats()); return nil },
}

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

	var err error
	switch command, local := localCommands[cmd]; {
	case *server != "":
		err = remoteCommand(vds.NewClient(*server), cmd, rest)
	case cmd == "xml" || cmd == "print":
		err = convert(cmd, rest)
	case cmd == "migrate":
		err = migrateDir(rest)
	case !local:
		fail("unknown command %q", cmd)
	case *catDir == "":
		fail("command %q needs -catalog DIR", cmd)
	default:
		var cat *catalog.Catalog
		if cat, err = catalog.Open(*catDir, dtype.StandardRegistry(), catalog.Options{}); err != nil {
			break
		}
		defer cat.Close()
		if err = command(cat, rest); err == nil {
			err = cat.Snapshot()
		}
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
  chimera xml|print FILE.vdl

With -server URL instead of -catalog DIR, insert, search, lineage
(-dot too) and stats operate against a running vdcd catalog service
and print the same lines, except that search prints no
materialized/virtual column: a search reply does not carry one.`)
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
		if err == nil {
			fmt.Println(string(data))
		}
		return err
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

// searchKinds maps search -kind values to the kinds a query ranges over.
var searchKinds = map[string]query.Kind{
	"dataset":        query.KDataset,
	"transformation": query.KTransformation,
	"derivation":     query.KDerivation,
}

func search(cat *catalog.Catalog, args []string) error {
	return searchWith(args, func(k query.Kind, q string) (query.Results, error) {
		return query.Search(cat, k, q)
	}, cat.Materialized)
}

// searchWith runs search against a catalog, local or remote, and prints
// the answer. materialized is nil against -server: a search reply has
// no materialized column.
func searchWith(args []string, find func(query.Kind, string) (query.Results, error), materialized func(string) bool) error {
	fs := flag.NewFlagSet("search", flag.ContinueOnError)
	kind := fs.String("kind", "dataset", "dataset, transformation or derivation")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("search needs exactly one QUERY")
	}
	k, ok := searchKinds[*kind]
	if !ok {
		return fmt.Errorf("unknown kind %q", *kind)
	}
	res, err := find(k, fs.Arg(0))
	if err == nil {
		printSearch(os.Stdout, res, materialized)
	}
	return err
}

// printSearch prints a search answer, one line per record.
func printSearch(w io.Writer, res query.Results, materialized func(string) bool) {
	for _, ds := range res.Datasets {
		switch {
		case materialized == nil:
			fmt.Fprintf(w, "dataset %-30s type=%s\n", ds.Name, ds.Type)
		case materialized(ds.Name):
			fmt.Fprintf(w, "dataset %-30s type=%-20s materialized\n", ds.Name, ds.Type)
		default:
			fmt.Fprintf(w, "dataset %-30s type=%-20s virtual\n", ds.Name, ds.Type)
		}
	}
	for _, tr := range res.Transformations {
		fmt.Fprintf(w, "transformation %-30s kind=%s args=%d\n", tr.Ref(), tr.Kind, len(tr.Args))
	}
	for _, dv := range res.Derivations {
		fmt.Fprintf(w, "derivation %-36s tr=%s\n", dv.ID, dv.TR)
	}
}

func lineage(cat *catalog.Catalog, args []string) error {
	return lineageOf(cat.Lineage, args)
}

// lineageOf prints a dataset's audit trail from a catalog, local or
// remote.
func lineageOf(report func(string) (catalog.LineageReport, error), args []string) error {
	fs := flag.NewFlagSet("lineage", flag.ContinueOnError)
	dot := fs.Bool("dot", false, "emit GraphViz DOT instead of text")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("lineage needs exactly one DATASET")
	}
	rep, err := report(fs.Arg(0))
	if err == nil && *dot {
		fmt.Print(rep.DOT())
	} else if err == nil {
		printLineage(os.Stdout, rep)
	}
	return err
}

// printLineage prints a lineage report: each step with its recorded
// runs, then the primary sources.
func printLineage(w io.Writer, rep catalog.LineageReport) {
	if rep.Primary {
		fmt.Fprintf(w, "%s is primary data (no recorded producer)\n", rep.Dataset)
		return
	}
	fmt.Fprintf(w, "lineage of %s:\n", rep.Dataset)
	for _, step := range rep.Steps {
		fmt.Fprintf(w, "  depth %d: %s  tr=%s\n", step.Depth, step.Derivation.ID, step.TR)
		fmt.Fprintf(w, "           inputs=%s outputs=%s\n", strings.Join(step.Inputs, ","), strings.Join(step.Outputs, ","))
		for _, iv := range step.Invocations {
			fmt.Fprintf(w, "           run %s on %s/%s exit=%d elapsed=%s\n",
				iv.ID, iv.Site, iv.Host, iv.ExitCode, iv.Duration())
		}
	}
	fmt.Fprintf(w, "primary sources: %s\n", strings.Join(rep.PrimarySources, ", "))
}

// printStats prints a catalog's object counts.
func printStats(w io.Writer, st catalog.Stats) {
	fmt.Fprintf(w, "datasets=%d transformations=%d derivations=%d invocations=%d replicas=%d\n",
		st.Datasets, st.Transformations, st.Derivations, st.Invocations, st.Replicas)
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
	dvs, err := core.NewWithCatalog("chimera", ".", cat).Plan(args[0])
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
	sys := core.NewWithCatalog("chimera", ".", cat)
	dvs, err := sys.Plan(fs.Arg(0))
	if err != nil {
		return err
	}
	e, err := sys.Estimate(fs.Arg(0), *hosts)
	if err != nil {
		return err
	}
	fmt.Printf("plan: %d derivations, total work %.0fs, critical path %.0fs\n",
		len(dvs), e.TotalWork, e.CriticalPath)
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
	sys := core.NewWithCatalog("chimera", *workspace, cat)
	sys.Local.ExecFallback = true
	sys.MaxRetries = *retries
	results, err := sys.MaterializeContext(obs.WithTracer(context.Background(), tracer), fs.Args()...)
	ran := -1
	for i, r := range results {
		if r.Reused {
			fmt.Printf("%s: already materialized\n", r.Target)
		} else {
			ran = i
		}
	}
	if ran < 0 {
		return err
	}
	// Each node's final attempt, in completion order: a failed attempt
	// with retries left is not final.
	rep := results[ran].Report
	for _, a := range rep.Results {
		switch {
		case a.ExitCode == 0:
			fmt.Printf("  done %s (%.2fs)\n", a.Node, a.End-a.Start)
		case a.Attempt >= *retries:
			fmt.Printf("  fail %s (%.2fs)\n", a.Node, a.End-a.Start)
		}
	}
	fmt.Printf("completed %d, failed %d, blocked %d in %.2fs\n",
		rep.Completed, rep.Failed, rep.Blocked, rep.Makespan)
	return err
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

// remoteCommand runs the subset of commands that operate against a
// shared catalog service (§8's enterprise-scale deployment) instead of
// a local directory. They print through the same printers as the local
// commands.
func remoteCommand(client *vds.Client, cmd string, args []string) error {
	switch cmd {
	case "insert":
		return insertFiles(args, func(src string) error { return client.PostVDL(context.Background(), src) })
	case "search":
		return searchWith(args, func(k query.Kind, q string) (res query.Results, err error) {
			switch k {
			case query.KDataset:
				res.Datasets, err = client.SearchDatasets(q)
			case query.KTransformation:
				res.Transformations, err = client.SearchTransformations(q)
			default:
				res.Derivations, err = client.SearchDerivations(q)
			}
			return res, err
		}, nil)
	case "lineage":
		return lineageOf(client.Lineage, args)
	case "stats":
		info, err := client.Info()
		if err == nil {
			printStats(os.Stdout, info.Stats)
		}
		return err
	default:
		return fmt.Errorf("command %q is not available against -server (use insert, search, lineage or stats)", cmd)
	}
}
