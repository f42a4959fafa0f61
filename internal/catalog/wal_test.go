package catalog

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"chimera/internal/dtype"
	"chimera/internal/schema"
)

// populate fills a catalog with a representative mix of objects.
func populate(t testing.TB, c *Catalog) {
	t.Helper()
	if err := c.DefineType(dtype.Content, "HEP", ""); err != nil {
		t.Fatal(err)
	}
	if err := c.DefineType(dtype.Content, "RawEvents", "HEP"); err != nil {
		t.Fatal(err)
	}
	if err := c.AddDataset(schema.Dataset{
		Name: "raw", Type: dtype.Type{Content: "RawEvents"},
		Descriptor: schema.FileDescriptor{Path: "/raw"}, Size: 100,
		Attrs: schema.Attributes{"run": "15"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTransformation(twoArg("t")); err != nil {
		t.Fatal(err)
	}
	dv, err := c.AddDerivation(chainDV("t", "raw", "cooked"))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddInvocation(schema.Invocation{
		ID: "iv1", Derivation: dv.ID, Site: "anl", Host: "n1",
		Start: time.Unix(100, 0).UTC(), End: time.Unix(130, 0).UTC(),
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddReplica(schema.Replica{ID: "r1", Dataset: "cooked", Site: "anl", PFN: "/store/cooked"}); err != nil {
		t.Fatal(err)
	}
	if err := c.AssertCompatibility(schema.CompatibilityAssertion{Name: "t", V1: "1", V2: "2", Mode: schema.Equivalent}); err != nil {
		t.Fatal(err)
	}
}

// requireSameState asserts two catalogs export identical state.
func requireSameState(t *testing.T, a, b *Catalog) {
	t.Helper()
	ea, eb := a.Export(), b.Export()
	ja, err := schema.CanonicalBytes(ea)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := schema.CanonicalBytes(eb)
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Fatalf("states differ:\n%s\n---\n%s", ja, jb)
	}
}

func TestWALReopenRestoresState(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	populate(t, c)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	requireSameState(t, c, c2)

	// Provenance indexes rebuilt.
	if _, err := c2.Producer("cooked"); err != nil {
		t.Errorf("producer index after replay: %v", err)
	}
	if !c2.Materialized("cooked") {
		t.Error("replica index after replay")
	}
	if !c2.Compatible("", "t", "1", "2") {
		t.Error("compat after replay")
	}
	if !c2.Types().IsSubtype(dtype.Content, "RawEvents", "HEP") {
		t.Error("type registry after replay")
	}
}

func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, nil, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	populate(t, c)
	if err := c.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// WAL truncated.
	fi, err := os.Stat(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != 0 {
		t.Errorf("wal not truncated: %d bytes", fi.Size())
	}
	// Mutations after snapshot land in the (new) log.
	if _, err := c.AddDerivation(chainDV("t", "cooked", "refined")); err != nil {
		t.Fatal(err)
	}
	c.Close()

	c2, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	requireSameState(t, c, c2)
}

// logBytes reports the size of a directory's log.
func logBytes(t *testing.T, dir string) int64 {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestSnapshotSyncsDirBeforeTruncate checks the order a crash-safe
// Snapshot needs: the directory sync that makes the new snapshot's
// rename durable runs while the log still holds every record, so a
// crash can lose the truncation but never the rename.
func TestSnapshotSyncsDirBeforeTruncate(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, nil, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	populate(t, c)
	logged := logBytes(t, dir)

	syncs := 0
	prev := syncDir
	t.Cleanup(func() { syncDir = prev })
	syncDir = func(d string) error {
		syncs++
		if _, err := os.Stat(filepath.Join(d, snapshotFile)); err != nil {
			t.Errorf("directory synced before the snapshot was renamed into place: %v", err)
		}
		if got := logBytes(t, d); got != logged {
			t.Errorf("log holds %d bytes at the directory sync, want all %d", got, logged)
		}
		return prev(d)
	}
	if err := c.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if syncs != 1 {
		t.Fatalf("Snapshot synced the directory %d times, want 1", syncs)
	}
	if got := logBytes(t, dir); got != 0 {
		t.Fatalf("log not truncated: %d bytes", got)
	}
}

// TestOpenSyncsDirAfterCreatingLogs: a fresh directory's last directory
// sync in Open must come after the log exists, or its entry is not
// durable.
func TestOpenSyncsDirAfterCreatingLogs(t *testing.T) {
	var sawLog []bool
	prev := syncDir
	t.Cleanup(func() { syncDir = prev })
	syncDir = func(d string) error {
		_, err := os.Stat(filepath.Join(d, walFile))
		sawLog = append(sawLog, err == nil)
		return prev(d)
	}
	c, err := Open(t.TempDir(), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if n := len(sawLog); n == 0 || !sawLog[n-1] {
		t.Fatalf("directory syncs saw the log: %v; the last must", sawLog)
	}
}

func TestTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	populate(t, c)
	c.Close()

	// Simulate a torn final write.
	walPath := filepath.Join(dir, walFile)
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"op":"dataset","data":{"name":"torn`)
	f.Close()

	c2, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatalf("torn tail should be tolerated: %v", err)
	}
	defer c2.Close()
	if _, err := c2.Dataset("torn"); !errors.Is(err, ErrNotFound) {
		t.Error("torn record applied")
	}
	if _, err := c2.Dataset("raw"); err != nil {
		t.Error("earlier records lost")
	}
}

func TestCorruptMidFileRecordRejected(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	populate(t, c)
	c.Close()

	// Corrupt a record that is *followed* by a valid one: that is log
	// damage, not a torn tail, and silently stopping there would drop
	// acknowledged state.
	walPath := filepath.Join(dir, walFile)
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("{\"op\":\"dataset\",\"data\":{\"name\":\"torn\n")
	f.WriteString("{\"op\":\"dataset\",\"data\":{\"name\":\"after\"}}\n")
	f.Close()

	if _, err := Open(dir, nil, Options{}); err == nil {
		t.Fatal("corrupt mid-file record silently tolerated")
	}
}

func TestTornTailAfterBlankLinesTolerated(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	populate(t, c)
	c.Close()

	walPath := filepath.Join(dir, walFile)
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A torn record trailed only by empty lines is still a torn tail.
	f.WriteString("{\"op\":\"dataset\",\"data\":{\"name\":\"torn\n\n")
	f.Close()

	c2, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatalf("torn tail with trailing blank line should be tolerated: %v", err)
	}
	c2.Close()
}

func TestOpenWithSeedRegistry(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, dtype.StandardRegistry(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !c.Types().Known(dtype.Content, "CMS") {
		t.Error("seed not applied")
	}
	c.Close()
	// Reopen with no seed: persisted registry must survive via ops?
	// Types registered via the seed are not persisted (they were not
	// catalog mutations), so callers reopen with the same seed.
	c2, err := Open(dir, dtype.StandardRegistry(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if !c2.Types().Known(dtype.Content, "CMS") {
		t.Error("seed on reopen")
	}
}

func TestSnapshotPersistsSeededTypes(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, dtype.StandardRegistry(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Snapshot(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	// After a snapshot, the registry is part of durable state: no seed
	// needed on reopen.
	c2, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if !c2.Types().Known(dtype.Content, "CMS") {
		t.Error("snapshot lost type registry")
	}
}

func TestExportImport(t *testing.T) {
	src := New(nil)
	populate(t, src)
	exp := src.Export()

	dst := New(nil)
	if err := dst.Import(exp); err != nil {
		t.Fatal(err)
	}
	requireSameState(t, src, dst)

	// Import is idempotent.
	if err := dst.Import(exp); err != nil {
		t.Fatalf("re-import: %v", err)
	}
	requireSameState(t, src, dst)
}

func TestExportDeterministic(t *testing.T) {
	a := New(nil)
	populate(t, a)
	e1, _ := schema.CanonicalBytes(a.Export())
	e2, _ := schema.CanonicalBytes(a.Export())
	if !reflect.DeepEqual(e1, e2) {
		t.Error("export not deterministic")
	}
}

func TestInMemoryCloseAndSnapshotNoops(t *testing.T) {
	c := New(nil)
	if err := c.Close(); err != nil {
		t.Error(err)
	}
	if err := c.Snapshot(); err != nil {
		t.Error(err)
	}
}

func TestCrashConsistencyManyOps(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.AddTransformation(twoArg("t"))
	for i := 0; i < 200; i++ {
		if _, err := c.AddDerivation(chainDV("t", fmt.Sprintf("in%d", i), fmt.Sprintf("out%d", i))); err != nil {
			t.Fatal(err)
		}
		if i%50 == 0 {
			if err := c.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
	}
	c.Close()
	c2, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Stats().Derivations != 200 {
		t.Errorf("derivations after replay: %d", c2.Stats().Derivations)
	}
	requireSameState(t, c, c2)
}

// TestCrashReplayRehomedReplica: a replica removed and registered again
// under another dataset must reopen, after a crash, where it was last
// acknowledged. (Replaying per-shard logs one after another re-added
// the new record before the old shard's removal deleted it.)
func TestCrashReplayRehomedReplica(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, nil, Options{Sync: true, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ds.old", "ds.new"} {
		if err := c.AddDataset(schema.Dataset{Name: name}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.AddReplica(schema.Replica{ID: "r1", Dataset: "ds.old", Site: "a", PFN: "/a/r1"}); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveReplica("r1"); err != nil {
		t.Fatal(err)
	}
	if err := c.AddReplica(schema.Replica{ID: "r1", Dataset: "ds.new", Site: "b", PFN: "/b/r1"}); err != nil {
		t.Fatal(err)
	}

	// Crash: reopen without Close.
	c2, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if got := c2.ReplicasOf("ds.new"); len(got) != 1 || got[0].ID != "r1" {
		t.Fatalf("ReplicasOf(ds.new) = %v, want [r1]", got)
	}
	if got := c2.ReplicasOf("ds.old"); len(got) != 0 {
		t.Fatalf("ReplicasOf(ds.old) = %v, want none", got)
	}
	if !c2.Materialized("ds.new") || c2.Materialized("ds.old") {
		t.Fatalf("Materialized: ds.new=%v ds.old=%v, want true/false", c2.Materialized("ds.new"), c2.Materialized("ds.old"))
	}
	if err := c2.CheckIndexes(); err != nil {
		t.Fatal(err)
	}
	c.Close()
}
