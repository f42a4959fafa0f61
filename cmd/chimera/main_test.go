package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"chimera/internal/catalog"
	"chimera/internal/codec"
	"chimera/internal/core"
	"chimera/internal/dtype"
	"chimera/internal/schema"
	"chimera/internal/vds"
)

// repoRoot locates the module root from the test binary's source path.
func repoRoot(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("no caller info")
	}
	return filepath.Dir(filepath.Dir(filepath.Dir(file)))
}

func openCat(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat, err := catalog.Open(t.TempDir(), dtype.StandardRegistry(), catalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cat.Close() })
	return cat
}

func TestInsertSampleVDLFiles(t *testing.T) {
	root := repoRoot(t)
	for _, f := range []string{
		"examples/vdl/paper-appendix-a.vdl",
		"examples/vdl/posix-pipeline.vdl",
		"examples/vdl/sdss-campaign.vdl",
	} {
		cat := openCat(t)
		if err := insert(cat, []string{filepath.Join(root, f)}); err != nil {
			t.Errorf("%s: %v", f, err)
		}
		if cat.Stats().Derivations == 0 {
			t.Errorf("%s: no derivations inserted", f)
		}
	}
}

func TestInsertIsIdempotent(t *testing.T) {
	root := repoRoot(t)
	cat := openCat(t)
	path := filepath.Join(root, "examples/vdl/sdss-campaign.vdl")
	if err := insert(cat, []string{path}); err != nil {
		t.Fatal(err)
	}
	before := cat.Stats()
	if err := insert(cat, []string{path}); err != nil {
		t.Fatalf("re-insert: %v", err)
	}
	if cat.Stats() != before {
		t.Errorf("re-insert changed state: %+v vs %+v", cat.Stats(), before)
	}
}

func TestSearchLineagePlanEstimateAnnotate(t *testing.T) {
	root := repoRoot(t)
	cat := openCat(t)
	if err := insert(cat, []string{filepath.Join(root, "examples/vdl/sdss-campaign.vdl")}); err != nil {
		t.Fatal(err)
	}
	if err := search(cat, []string{"-kind", "dataset", "derived"}); err != nil {
		t.Error(err)
	}
	if err := search(cat, []string{"-kind", "transformation", "simple"}); err != nil {
		t.Error(err)
	}
	if err := search(cat, []string{"-kind", "derivation", `attr.campaign = dr1`}); err != nil {
		t.Error(err)
	}
	if err := search(cat, []string{"-kind", "bogus", "x"}); err == nil {
		t.Error("bad kind accepted")
	}
	if err := search(cat, []string{}); err == nil {
		t.Error("missing query accepted")
	}
	if err := lineage(cat, []string{"catalog.stripe0"}); err != nil {
		t.Error(err)
	}
	if err := lineage(cat, []string{"field.0"}); err != nil {
		t.Error(err)
	}
	if err := lineage(cat, []string{"ghost"}); err == nil {
		t.Error("lineage of ghost accepted")
	}
	if err := invalidate(cat, []string{"field.0"}); err != nil {
		t.Error(err)
	}
	if err := plan(cat, []string{"catalog.stripe0"}); err != nil {
		t.Error(err)
	}
	if err := estimate(cat, []string{"-hosts", "4", "catalog.stripe0"}); err != nil {
		t.Error(err)
	}
	if err := annotate(cat, []string{"catalog.stripe0", "quality=draft"}); err != nil {
		t.Error(err)
	}
	ds, err := cat.Dataset("catalog.stripe0")
	if err != nil || ds.Attrs["quality"] != "draft" {
		t.Errorf("annotation: %+v %v", ds, err)
	}
	if err := annotate(cat, []string{"catalog.stripe0", "no-equals-sign"}); err == nil {
		t.Error("malformed annotation accepted")
	}
	if err := annotate(cat, []string{"ghost", "k=v"}); err == nil {
		t.Error("annotation of ghost accepted")
	}
}

// TestAnnotateReplacesValue: annotating a key again replaces its value
// in the record and in the attribute index; a record read before is
// left as it was.
func TestAnnotateReplacesValue(t *testing.T) {
	cat := openCat(t)
	if err := cat.AddDataset(schema.Dataset{Name: "d", Attrs: schema.Attributes{"k": "old"}}); err != nil {
		t.Fatal(err)
	}
	before, err := cat.Dataset("d")
	if err != nil {
		t.Fatal(err)
	}
	if err := annotate(cat, []string{"d", "k=new"}); err != nil {
		t.Fatal(err)
	}
	if before.Attrs["k"] != "old" {
		t.Errorf("annotate changed a record read before it: k=%q", before.Attrs["k"])
	}
	if err := cat.CheckIndexes(); err != nil {
		t.Fatal(err)
	}
	v := cat.View()
	defer v.Close()
	if n := v.DatasetsByAttr("k", "old").Len(); n != 0 {
		t.Errorf("attr.k = old still finds %d dataset(s)", n)
	}
	if n := v.DatasetsByAttr("k", "new").Len(); n != 1 {
		t.Errorf("attr.k = new finds %d dataset(s), want 1", n)
	}
}

func TestRunCommandRealPipeline(t *testing.T) {
	if _, err := os.Stat("/bin/cat"); err != nil {
		t.Skip("POSIX binaries unavailable")
	}
	root := repoRoot(t)
	cat := openCat(t)
	if err := insert(cat, []string{filepath.Join(root, "examples/vdl/posix-pipeline.vdl")}); err != nil {
		t.Fatal(err)
	}
	ws := t.TempDir()
	if err := os.WriteFile(filepath.Join(ws, "corpus"), []byte("virtual data\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(cat, []string{"-workspace", ws, "report"}); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(filepath.Join(ws, "report"))
	if err != nil || string(out) != "VIRTUAL DATA\n" {
		t.Errorf("pipeline output: %q %v", out, err)
	}
	// Provenance recorded; second run is a no-op.
	if cat.Stats().Invocations != 2 {
		t.Errorf("invocations: %d", cat.Stats().Invocations)
	}
	if err := run(cat, []string{"-workspace", ws, "report"}); err != nil {
		t.Fatal(err)
	}
	if cat.Stats().Invocations != 2 {
		t.Error("re-run executed jobs despite materialization")
	}
	// Missing target errors.
	if err := run(cat, []string{"-workspace", ws, "ghost"}); err == nil {
		t.Error("run of ghost accepted")
	}
	if err := run(cat, []string{"-workspace", ws}); err == nil {
		t.Error("run with no target accepted")
	}
}

func TestConvertCommands(t *testing.T) {
	root := repoRoot(t)
	path := filepath.Join(root, "examples/vdl/paper-appendix-a.vdl")
	if err := convert("print", []string{path}); err != nil {
		t.Error(err)
	}
	if err := convert("xml", []string{path}); err != nil {
		t.Error(err)
	}
	if err := convert("print", []string{}); err == nil {
		t.Error("missing file accepted")
	}
	if err := convert("print", []string{"/no/such.vdl"}); err == nil {
		t.Error("unreadable file accepted")
	}
}

func TestRemoteCommands(t *testing.T) {
	cat := openCat(t)
	srv := httptest.NewServer(vds.NewServer("shared", cat))
	defer srv.Close()
	client := vds.NewClient(srv.URL)

	for _, f := range exampleFiles(t) {
		before := cat.Stats().Derivations
		if err := remoteCommand(client, "insert", []string{f}); err != nil {
			t.Fatalf("%s: %v", filepath.Base(f), err)
		}
		if cat.Stats().Derivations == before {
			t.Fatalf("%s: remote insert did not land", filepath.Base(f))
		}
	}
	for _, kind := range []string{"dataset", "transformation", "derivation"} {
		if err := remoteCommand(client, "search", []string{"-kind", kind, "*"}); err != nil {
			t.Errorf("remote search %s: %v", kind, err)
		}
	}
	if err := remoteCommand(client, "lineage", []string{"catalog.stripe0"}); err != nil {
		t.Error(err)
	}
	if err := remoteCommand(client, "lineage", []string{"field.0"}); err != nil {
		t.Error(err)
	}
	if err := remoteCommand(client, "stats", nil); err != nil {
		t.Error(err)
	}
	if err := remoteCommand(client, "run", []string{"x"}); err == nil {
		t.Error("remote run should be unsupported")
	}
	if err := remoteCommand(client, "search", []string{"-kind", "bogus", "*"}); err == nil {
		t.Error("bad kind accepted remotely")
	}
	if err := remoteCommand(client, "insert", nil); err == nil {
		t.Error("remote insert without files accepted")
	}
}

// exampleFiles lists the repository's sample programs.
func exampleFiles(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(repoRoot(t), "examples", "vdl", "*.vdl"))
	if err != nil || len(files) < 3 {
		t.Fatalf("examples/vdl: %v %v", files, err)
	}
	return files
}

// TestInsertModesAgree: every sample program loads the same way over
// the wire (chimera -server URL insert, POST /v1/vdl), into a local
// directory (chimera -catalog DIR insert) and through System.LoadVDL:
// the three fresh catalogs' canonical exports are byte-identical. The
// paper's Appendix A and the POSIX pipeline derive through compound
// transformations, which the catalog stores as their simple leaves.
func TestInsertModesAgree(t *testing.T) {
	snapshot := func(cat *catalog.Catalog) []byte {
		exp := cat.Export()
		var buf bytes.Buffer
		if err := codec.EncodeSnapshot(&buf, &exp); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, f := range exampleFiles(t) {
		t.Run(filepath.Base(f), func(t *testing.T) {
			local := openCat(t)
			if err := insert(local, []string{f}); err != nil {
				t.Fatalf("local insert: %v", err)
			}
			remote := openCat(t)
			srv := httptest.NewServer(vds.NewServer("shared", remote))
			defer srv.Close()
			if err := remoteCommand(vds.NewClient(srv.URL), "insert", []string{f}); err != nil {
				t.Fatalf("remote insert: %v", err)
			}
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			sys := core.NewWithCatalog("sys", t.TempDir(), openCat(t))
			if err := sys.LoadVDL(string(src)); err != nil {
				t.Fatalf("LoadVDL: %v", err)
			}
			want := snapshot(local)
			if !bytes.Equal(snapshot(remote), want) {
				t.Errorf("POST /v1/vdl stored %+v, local insert %+v", remote.Stats(), local.Stats())
			}
			if !bytes.Equal(snapshot(sys.Cat), want) {
				t.Errorf("LoadVDL stored %+v, local insert %+v", sys.Cat.Stats(), local.Stats())
			}
		})
	}
}

// TestInsertIsOneBatch: each file is one strict batch. A derivation of
// a compound transformation the same file defines expands to its
// leaves, and a file that fails on its last statement applies nothing.
func TestInsertIsOneBatch(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	good := write("good.vdl", `
TR cook( output o, input i ) {
  argument stdin = ${input:i};
  argument stdout = ${output:o};
  exec = "/bin/cook";
}
TR twice( input i, inout mid=@{inout:"mid":""}, output o ) {
  cook( o=${output:mid}, i=${i} );
  cook( o=${o}, i=${input:mid} );
}
DV first->twice( i=@{input:"source"}, o=@{output:"refined"} );
`)
	bad := write("bad.vdl", `DS extra; DV second->nope( o=@{output:"z"} );`)
	cat := openCat(t)
	if err := insert(cat, []string{good}); err != nil {
		t.Fatal(err)
	}
	if st := cat.Stats(); st.Derivations != 2 {
		t.Fatalf("the compound should expand to 2 leaf derivations, got %d", st.Derivations)
	}
	before := cat.Stats()
	if err := insert(cat, []string{bad}); err == nil {
		t.Fatal("a derivation of an unknown transformation was accepted")
	}
	if st := cat.Stats(); st != before {
		t.Fatalf("refused file changed the catalog: %+v, was %+v", st, before)
	}
}

// TestMigrateCommand: `chimera migrate -dir D` converts a directory the
// sharded catalog wrote, which Open refused, into one Open reads; run
// again it changes nothing.
func TestMigrateCommand(t *testing.T) {
	dir := t.TempDir()
	fixture := filepath.Join(repoRoot(t), "internal", "migrate", "testdata", "sharded4")
	names, err := filepath.Glob(filepath.Join(fixture, "*"))
	if err != nil || len(names) == 0 {
		t.Fatalf("fixture: %v %v", names, err)
	}
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(name)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := catalog.Open(dir, nil, catalog.Options{}); err == nil {
		t.Fatal("Open accepted an unmigrated directory")
	}
	if err := migrateDir(nil); err == nil {
		t.Error("migrate without -dir succeeded")
	}
	for _, run := range []string{"first", "second"} {
		if err := migrateDir([]string{"-dir", dir}); err != nil {
			t.Fatalf("%s migrate: %v", run, err)
		}
	}
	cat, err := catalog.Open(dir, nil, catalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	if st := cat.Stats(); st.Derivations == 0 || st.Replicas == 0 {
		t.Fatalf("migrated catalog holds %+v", st)
	}
}
