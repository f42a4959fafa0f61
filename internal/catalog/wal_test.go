package catalog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"chimera/internal/codec"
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

// readLog returns a directory's binary log.
func readLog(t testing.TB, dir string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// logRecords decodes a directory's binary log.
func logRecords(t testing.TB, dir string) []codec.Record {
	t.Helper()
	var recs []codec.Record
	if _, err := readFrames(readLog(t, dir), func(op codec.RecordKind, v any) error {
		recs = append(recs, codec.Record{Kind: op, Value: v})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

// frameOf encodes one record as a log frame.
func frameOf(t testing.TB, op codec.RecordKind, v any) []byte {
	t.Helper()
	frame, err := appendFrame(nil, op, v)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// populatedDir returns a directory holding populate's history in its
// log, with tail appended to the log.
func populatedDir(t testing.TB, tail []byte) string {
	t.Helper()
	dir := t.TempDir()
	c, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	populate(t, c)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, walFile), append(readLog(t, dir), tail...), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// requireTornTailDropped opens dir, whose log ends in a torn record
// for dataset "torn": the record is ignored, the ones before it are
// kept, and a mutation acknowledged after the reopen survives the next.
func requireTornTailDropped(t *testing.T, dir string) {
	t.Helper()
	c, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatalf("torn tail should be tolerated: %v", err)
	}
	if _, err := c.Dataset("torn"); !errors.Is(err, ErrNotFound) {
		t.Error("torn record applied")
	}
	if _, err := c.Dataset("raw"); err != nil {
		t.Error("earlier records lost")
	}
	if err := c.AddDataset(schema.Dataset{Name: "after"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatalf("reopen after appending behind a torn tail: %v", err)
	}
	defer c2.Close()
	requireSameState(t, c, c2)
}

// TestTornTailTolerated cuts a final frame at every byte, length
// prefix included: each is a torn write, ignored on reopen and cut off
// before the next append.
func TestTornTailTolerated(t *testing.T) {
	frame := frameOf(t, codec.RecDataset, schema.Dataset{Name: "torn", Size: 1})
	for cut := 1; cut < len(frame); cut++ {
		requireTornTailDropped(t, populatedDir(t, frame[:cut]))
	}
}

// TestCorruptMidFileRecordRejected: a damaged record *followed* by a
// valid one is log damage, not a torn tail, and silently stopping
// there would drop acknowledged state.
func TestCorruptMidFileRecordRejected(t *testing.T) {
	bad := frameOf(t, codec.RecDataset, schema.Dataset{Name: "torn"})
	bad[len(bad)-6] ^= 0x20 // in the record, past the length
	after := frameOf(t, codec.RecDataset, schema.Dataset{Name: "after"})
	if c, err := Open(populatedDir(t, append(bad, after...)), nil, Options{}); err == nil {
		c.Close()
		t.Fatal("corrupt mid-file frame silently tolerated")
	}
}

// TestTornTailAfterBlankLinesTolerated: a torn record trailed only by
// filler — zero bytes the file system allocated but the crash never
// wrote — is still a torn tail.
func TestTornTailAfterBlankLinesTolerated(t *testing.T) {
	frame := frameOf(t, codec.RecDataset, schema.Dataset{Name: "torn", Size: 1})
	tail := append(frame[:len(frame)/2:len(frame)/2], make([]byte, 64)...)
	requireTornTailDropped(t, populatedDir(t, tail))
}

// TestWALBitFlipRejected flips, one at a time, every bit of every
// record but the last, length prefixes included, in a log of datasets
// with large sizes and attributes. Replay must fail each time: never
// succeed with a wrong value, and never stop early as though the log
// ended there.
func TestWALBitFlipRejected(t *testing.T) {
	dir := t.TempDir()
	add := func(i int, size int64) {
		c, err := Open(dir, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.AddDataset(schema.Dataset{
			Name: fmt.Sprintf("ds-%d", i), Size: size,
			Attrs: schema.Attributes{"run": strconv.Itoa(i), "blob": strings.Repeat("x", 300*i)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i, size := range []int64{1039830001, 7, 1 << 40} {
		add(i, size)
	}
	covered := len(readLog(t, dir))
	add(3, 1039830001)
	log := readLog(t, dir)
	if _, err := replayLog(log); err != nil {
		t.Fatal(err)
	}
	for bit := 0; bit < 8*covered; bit++ {
		flipped := bytes.Clone(log)
		flipped[bit/8] ^= 1 << (bit % 8)
		if c, err := replayLog(flipped); err == nil {
			t.Fatalf("bit %d of byte %d flipped: replay succeeded with %d datasets", bit%8, bit/8, c.Stats().Datasets)
		}
	}
}

// TestFrameLengthFlipCaught flips each bit of a frame's length and
// check byte, for every length a 1–3 byte uvarint holds and for
// lengths just past the 4-byte boundary, in a log that continues past
// the frame: the frame must fail — never pass, and never read as one
// that runs past the end of the log (a torn tail).
func TestFrameLengthFlipCaught(t *testing.T) {
	const k4 = 1 << 21
	buf := make([]byte, frameHdrMax+k4+64+frameCRCLen+1)
	check := func(n int) {
		var hdr [frameHdrMax]byte
		k := binary.PutUvarint(hdr[:], uint64(n))
		hdr[k] = frameHdr(uint64(n), k)
		data := buf[:k+1+n+frameCRCLen+1] // one byte of the next frame
		clear(data)
		data[k+1] = byte(codec.RecDataset)
		data[len(data)-1] = 0xff
		for bit := 0; bit < 8*(k+1); bit++ {
			copy(data, hdr[:k+1])
			data[bit/8] ^= 1 << (bit % 8)
			if _, _, err := frameAt(data, 0); err == nil || errors.Is(err, errFrameCut) {
				t.Fatalf("n=%d, bit %d of byte %d flipped: %v", n, bit%8, bit/8, err)
			}
		}
	}
	for n := 1; n < 1<<16; n++ {
		check(n)
	}
	for n := k4 - 8; n < k4+64; n++ {
		check(n)
	}
}

// TestLargeRecordReopens: an acknowledged record of any size the frame
// limit admits must reopen. A 3 MiB attribute of '<' is 18 MiB as an
// escaped JSON line — past the line cap the JSON-lines reader once had.
func TestLargeRecordReopens(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, nil, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	big := strings.Repeat("<", 3<<20)
	if err := c.AddDataset(schema.Dataset{Name: "big", Attrs: schema.Attributes{"blob": big}}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddDataset(schema.Dataset{Name: "after"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer c2.Close()
	ds, err := c2.Dataset("big")
	if err != nil {
		t.Fatal(err)
	}
	if ds.Attrs["blob"] != big {
		t.Fatalf("attribute reopened as %d bytes, want %d", len(ds.Attrs["blob"]), len(big))
	}
	if _, err := c2.Dataset("after"); err != nil {
		t.Fatal(err)
	}
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
