package migrate

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"chimera/internal/catalog"
	"chimera/internal/dtype"
	"chimera/internal/schema"
)

// The fixtures were written by earlier builds: testdata/jsonl1 by the
// JSON-lines catalog (a JSON snapshot, then every op kind in
// wal.jsonl), testdata/sharded4 by the 4-shard catalog; each
// <fixture>-want.json is the canonical export that catalog reopened it
// to. The tests that check the migrated state of randomized legacy
// directories, and Open's refusal of every legacy layout, are in
// internal/catalog (legacy_test.go).

var fixtures = []string{"jsonl1", "sharded4"}

// copyFixture copies a fixture's files into a new directory.
func copyFixture(t *testing.T, fixture string) string {
	t.Helper()
	dir := t.TempDir()
	names, err := filepath.Glob(filepath.Join("testdata", fixture, "*"))
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
	return dir
}

// fixtureWant returns a fixture's canonical export.
func fixtureWant(t *testing.T, fixture string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", fixture+"-want.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := json.Compact(&want, data); err != nil {
		t.Fatal(err)
	}
	return want.String()
}

// export opens dir and returns its canonical export.
func export(t *testing.T, dir string) (string, error) {
	t.Helper()
	c, err := catalog.Open(dir, nil, catalog.Options{})
	if err != nil {
		return "", err
	}
	defer c.Close()
	if err := c.CheckIndexes(); err != nil {
		t.Fatal(err)
	}
	b, err := schema.CanonicalBytes(c.Export())
	if err != nil {
		t.Fatal(err)
	}
	return string(b), nil
}

// dirState lists each file of dir with its bytes.
func dirState(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var state []string
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		state = append(state, e.Name()+"="+string(data))
	}
	return state
}

// requireMigrated migrates dir (again, if it was) and checks that it
// then opens to want, holding only the one layout, and that a further
// migrate changes nothing.
func requireMigrated(t *testing.T, dir, want, stage string) {
	t.Helper()
	if _, err := Dir(dir, nil); err != nil {
		t.Fatalf("%s: migrate: %v", stage, err)
	}
	got, err := export(t, dir)
	if err != nil {
		t.Fatalf("%s: open: %v", stage, err)
	}
	if got != want {
		t.Fatalf("%s: export differs from the one the legacy catalog reopened:\n got: %s\nwant: %s", stage, got, want)
	}
	before := dirState(t, dir)
	if converted, err := Dir(dir, nil); converted || err != nil {
		t.Fatalf("%s: migrate of a migrated directory: converted=%v err=%v", stage, converted, err)
	}
	if after := dirState(t, dir); !slices.Equal(after, before) {
		t.Fatalf("%s: migrate of a migrated directory changed it", stage)
	}
	var names []string
	for _, f := range before {
		name, _, _ := strings.Cut(f, "=")
		names = append(names, name)
	}
	if !slices.Equal(names, []string{snapshotFile, walFile}) {
		t.Fatalf("%s: directory holds %v, want [%s %s]", stage, names, snapshotFile, walFile)
	}
}

// errInjected is the failure the crash sweep injects.
var errInjected = errors.New("injected failure")

// failAt makes the k-th file operation Dir makes in the catalog
// directory fail — a write after half its bytes, any other operation
// before it takes effect — and counts the operations into *ops. It
// returns the function that puts the operations back.
func failAt(k int, ops *int) (restore func()) {
	w, sf, rn, rm, sd := write, syncFile, rename, remove, syncDir
	fail := func() bool { *ops++; return *ops == k }
	write = func(f *os.File, b []byte) error {
		if fail() {
			w(f, b[:len(b)/2])
			return errInjected
		}
		return w(f, b)
	}
	syncFile = func(f *os.File) error {
		if fail() {
			return errInjected
		}
		return sf(f)
	}
	rename = func(from, to string) error {
		if fail() {
			return errInjected
		}
		return rn(from, to)
	}
	remove = func(name string) error {
		if fail() {
			return errInjected
		}
		return rm(name)
	}
	syncDir = func(dir string) error {
		if fail() {
			return errInjected
		}
		return sd(dir)
	}
	return func() { write, syncFile, rename, remove, syncDir = w, sf, rn, rm, sd }
}

// sweepCases are the directories the crash sweep migrates, each with
// the export it must reach: each fixture; two shard logs holding one
// replica removed in the first and registered again under another
// dataset in the second, where only the order of the removals keeps it;
// and two layouts without logs, a JSON snapshot alone and an untrailed
// snapshot.bin beside a non-empty wal.bin.
func sweepCases() map[string]func(t *testing.T) (dir, want string) {
	cases := map[string]func(t *testing.T) (string, string){}
	for _, fixture := range fixtures {
		cases[fixture] = func(t *testing.T) (string, string) { return copyFixture(t, fixture), fixtureWant(t, fixture) }
	}
	cases["snapshot.json"] = func(t *testing.T) (string, string) {
		dir := copyFixture(t, "jsonl1")
		for _, name := range []string{metaFile, jsonLog} {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				t.Fatal(err)
			}
		}
		var exp catalog.Export
		data, err := os.ReadFile(filepath.Join(dir, jsonSnapshot))
		if err == nil {
			err = json.Unmarshal(data, &exp)
		}
		want, err2 := schema.CanonicalBytes(exp)
		if err != nil || err2 != nil {
			t.Fatal(err, err2)
		}
		return dir, string(want)
	}
	cases["replica re-homed across shard logs"] = func(t *testing.T) (string, string) {
		dir := t.TempDir()
		line := func(op string, v any) string {
			data, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			return `{"op":"` + op + `","data":` + string(data) + "}\n"
		}
		old := schema.Replica{ID: "r1", Dataset: "ds.old", Site: "a", PFN: "/a/r1"}
		moved := schema.Replica{ID: "r1", Dataset: "ds.new", Site: "b", PFN: "/b/r1"}
		for name, log := range map[string]string{
			metaFile:      `{"shards":2}`,
			"wal-0.jsonl": line("dataset", schema.Dataset{Name: "ds.old"}) + line("replica", old) + line("remove-replica", "r1"),
			"wal-1.jsonl": line("dataset", schema.Dataset{Name: "ds.new"}) + line("replica", moved),
		} {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(log), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		c := catalog.New(nil)
		for _, err := range []error{c.AddDataset(schema.Dataset{Name: "ds.new"}), c.AddDataset(schema.Dataset{Name: "ds.old"}), c.AddReplica(moved)} {
			if err != nil {
				t.Fatal(err)
			}
		}
		want, err := schema.CanonicalBytes(c.Export())
		if err != nil {
			t.Fatal(err)
		}
		return dir, string(want)
	}
	cases["untrailed snapshot.bin"] = func(t *testing.T) (string, string) {
		dir := t.TempDir()
		c, err := catalog.Open(dir, nil, catalog.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i, name := range []string{"raw", "cooked", "later"} {
			if err := c.AddDataset(schema.Dataset{Name: name, Size: int64(i)}); err != nil {
				t.Fatal(err)
			}
			if i == 1 {
				if err := c.Snapshot(); err != nil {
					t.Fatal(err)
				}
			}
		}
		want, err := schema.CanonicalBytes(c.Export())
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, snapshotFile)
		snap, err := os.ReadFile(path)
		if err == nil {
			err = os.WriteFile(path, snap[:len(snap)-8], 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
		return dir, string(want)
	}
	return cases
}

// TestMigrateCrashSweep fails the k-th write, fsync, rename or remove
// migrate makes in the directory, for every k, and checks that nothing
// is lost: the failed run leaves a directory that either Open refuses
// or opens to the expected export, and rerunning migrate always
// reaches that export. The sweep ends at the first k past the last
// operation, when migrate succeeds untouched.
func TestMigrateCrashSweep(t *testing.T) {
	for name, setup := range sweepCases() {
		t.Run(name, func(t *testing.T) {
			for k := 1; ; k++ {
				dir, want := setup(t)
				ops := 0
				restore := failAt(k, &ops)
				_, err := Dir(dir, nil)
				restore()
				if err == nil {
					if ops != k-1 || k < 6 {
						t.Fatalf("migrate made %d file operations, the sweep failed %d", ops, k-1)
					}
					requireMigrated(t, dir, want, "no failure")
					return
				}
				if !errors.Is(err, errInjected) {
					t.Fatalf("failure %d: %v", k, err)
				}
				if got, err := export(t, dir); err == nil && got != want {
					t.Fatalf("failure %d: the directory opens to a different export:\n got: %s\nwant: %s", k, got, want)
				}
				requireMigrated(t, dir, want, "rerun")
			}
		})
	}
}

// jsonlDir returns a directory whose wal.jsonl holds the dataset "raw"
// and then tail.
func jsonlDir(t *testing.T, tail string) string {
	t.Helper()
	dir := t.TempDir()
	log := `{"op":"dataset","data":{"name":"raw","size":100}}` + "\n" + tail
	if err := os.WriteFile(filepath.Join(dir, jsonLog), []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// requireTornTailDropped migrates dir, whose wal.jsonl ends in a torn
// record for dataset "torn": the record is dropped, the one before it
// is kept, and a mutation acknowledged after the migration survives a
// reopen.
func requireTornTailDropped(t *testing.T, dir string) {
	t.Helper()
	if _, err := Dir(dir, nil); err != nil {
		t.Fatalf("torn tail should be tolerated: %v", err)
	}
	c, err := catalog.Open(dir, nil, catalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Dataset("torn"); !errors.Is(err, catalog.ErrNotFound) {
		t.Error("torn record applied")
	}
	if _, err := c.Dataset("raw"); err != nil {
		t.Error("earlier records lost")
	}
	if err := c.AddDataset(schema.Dataset{Name: "after"}); err != nil {
		t.Fatal(err)
	}
	want, err := schema.CanonicalBytes(c.Export())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := export(t, dir); err != nil || got != string(want) {
		t.Fatalf("reopen after the migration: %v\n got: %s\nwant: %s", err, got, want)
	}
}

// TestJSONLTornTailTolerated: a final line cut short is a torn write,
// never acknowledged: migrate drops it.
func TestJSONLTornTailTolerated(t *testing.T) {
	requireTornTailDropped(t, jsonlDir(t, `{"op":"dataset","data":{"name":"torn`))
}

// TestJSONLTornTailAfterBlankLinesTolerated: a torn record trailed only
// by empty lines is still a torn tail.
func TestJSONLTornTailAfterBlankLinesTolerated(t *testing.T) {
	requireTornTailDropped(t, jsonlDir(t, "{\"op\":\"dataset\",\"data\":{\"name\":\"torn\n\n"))
}

// TestJSONLCorruptMidFileRecordRejected: a damaged record *followed* by
// a valid one is log damage, not a torn tail, and silently stopping
// there would drop acknowledged state: migrate fails and leaves the
// directory as it was.
func TestJSONLCorruptMidFileRecordRejected(t *testing.T) {
	dir := jsonlDir(t, "{\"op\":\"dataset\",\"data\":{\"name\":\"torn\n"+
		"{\"op\":\"dataset\",\"data\":{\"name\":\"after\"}}\n")
	before := dirState(t, dir)
	if _, err := Dir(dir, nil); err == nil {
		t.Fatal("corrupt mid-file record silently tolerated")
	}
	if after := dirState(t, dir); !slices.Equal(after, before) {
		t.Fatal("a refused migration changed the directory")
	}
}

// TestMigrateCurrentLayoutIsNoOp: a directory this build wrote, and one
// migrate has converted, are left exactly as they are.
func TestMigrateCurrentLayoutIsNoOp(t *testing.T) {
	dir := t.TempDir()
	c, err := catalog.Open(dir, nil, catalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddDataset(schema.Dataset{Name: "raw"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := c.AddDataset(schema.Dataset{Name: "later"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	before := dirState(t, dir)
	if converted, err := Dir(dir, nil); converted || err != nil {
		t.Fatalf("migrate of a current directory: converted=%v err=%v", converted, err)
	}
	if after := dirState(t, dir); !slices.Equal(after, before) {
		t.Fatal("migrate changed a current directory")
	}
	requireMigrated(t, copyFixture(t, "jsonl1"), fixtureWant(t, "jsonl1"), "second migrate")
}

// TestMigrateSeedTypes: a log may hold a dataset whose type only the
// registry its catalog was opened with defines; migrating under that
// seed converts it, and under none refuses it rather than drop it.
func TestMigrateSeedTypes(t *testing.T) {
	dir := t.TempDir()
	log := `{"op":"dataset","data":{"name":"img","type":{"content":"Image-raw"}}}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, jsonLog), []byte(log), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Dir(dir, nil); err == nil {
		t.Fatal("migrate without the seed converted a dataset of an unknown type")
	}
	if _, err := Dir(dir, dtype.StandardRegistry()); err != nil {
		t.Fatal(err)
	}
	c, err := catalog.Open(dir, dtype.StandardRegistry(), catalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if ds, err := c.Dataset("img"); err != nil || ds.Type.Content != "Image-raw" {
		t.Fatalf("migrated dataset: %+v %v", ds, err)
	}
}

// FuzzReadLog feeds arbitrary bytes to the JSON-lines reader and the
// fold, in memory (no directory, no fsync): they must fail or succeed,
// never panic, and a successful fold must yield its delta. A line that
// does not parse is tolerated only as the last non-empty one, so put
// before the bytes it fails the fold exactly when they hold a non-empty
// line. FuzzReplayJSONL (internal/catalog) runs bytes through a whole
// migration, a directory and a catalog per input. Its seeds are the
// fixtures' logs, each also cut inside its last line and with a byte
// of its second line flipped. Run `go test -fuzz FuzzReadLog
// ./internal/migrate` for a longer campaign.
func FuzzReadLog(f *testing.F) {
	logs, err := filepath.Glob(filepath.Join("testdata", "*", "*.jsonl"))
	if err != nil || len(logs) == 0 {
		f.Fatalf("fixture logs: %v %v", logs, err)
	}
	for _, name := range logs {
		log, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(log)
		last := bytes.LastIndexByte(log[:len(log)-1], '\n') + 1
		f.Add(log[:last+(len(log)-last)/2])
		flipped := bytes.Clone(log)
		flipped[bytes.IndexByte(log, '\n')+1] ^= 0x01
		f.Add(flipped)
	}
	newFold := func() *fold { return &fold{types: dtype.StandardRegistry(), last: map[string]any{}} }
	const torn = `{"op":"dataset","data":{"name":"torn` + "\n"
	f.Fuzz(func(t *testing.T, log []byte) {
		if fl := newFold(); fl.read(bytes.NewReader(log)) == nil {
			fl.delta()
		}
		err := newFold().read(io.MultiReader(strings.NewReader(torn), bytes.NewReader(log)))
		more := slices.ContainsFunc(bytes.Split(log, []byte("\n")), func(line []byte) bool {
			return len(bytes.TrimSuffix(line, []byte("\r"))) > 0
		})
		if (err != nil) != more {
			t.Fatalf("a corrupt first line before %q: err = %v", log, err)
		}
	})
}
