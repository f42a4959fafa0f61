package catalog

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"chimera/internal/codec"
	"chimera/internal/dtype"
	"chimera/internal/schema"
)

// Legacy sharded directories: Open converts a directory written by the
// former N-shard catalog (wal-<i>.jsonl per shard, catalog-meta.json
// recording N) to the one-log layout. testdata/sharded4 is such a
// directory, written by the sharded catalog itself; testdata/
// sharded4-want.json is the canonical export the sharded catalog
// reopened it to. The randomized tests build legacy directories from a
// one-log history by routing each record to the shard the sharded
// catalog homed it on.

// logRecord is one decoded log record.
type logRecord struct {
	op opKind
	v  any
}

// logRecords decodes a directory's binary log.
func logRecords(t testing.TB, dir string) []logRecord {
	t.Helper()
	var recs []logRecord
	if _, err := readFrames(readLog(t, dir), func(op opKind, v any) error {
		recs = append(recs, logRecord{op, v})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

// jsonLine encodes a record as the JSON-lines log wrote it.
func jsonLine(t testing.TB, r logRecord) []byte {
	t.Helper()
	for name, kind := range legacyOps {
		if kind.op != r.op {
			continue
		}
		data, err := json.Marshal(r.v)
		if err != nil {
			t.Fatal(err)
		}
		line, err := json.Marshal(legacyRecord{Op: name, Data: data})
		if err != nil {
			t.Fatal(err)
		}
		return append(line, '\n')
	}
	t.Fatalf("unknown op %d", r.op)
	return nil
}

// jsonLog encodes records as a JSON-lines log.
func jsonLog(t testing.TB, recs []logRecord) []byte {
	var log []byte
	for _, r := range recs {
		log = append(log, jsonLine(t, r)...)
	}
	return log
}

// legacyHome is the shard an N-shard catalog logged a record on:
// FNV-1a of the object's home name (a replica's dataset, an
// invocation's derivation, a transformation's versionless base; types
// and compat on shard 0). replicaDS remembers each replica's dataset,
// which homes its removal.
func legacyHome(r logRecord, replicaDS map[string]string, n int) int {
	var name string
	switch v := r.v.(type) {
	case codec.TypeDef, schema.CompatibilityAssertion:
		return 0
	case schema.Dataset:
		name = v.Name
	case schema.Transformation:
		name = schema.FormatTRRef(v.Namespace, v.Name, "")
	case schema.Derivation:
		name = v.ID
	case schema.Invocation:
		name = v.Derivation
	case schema.Replica:
		name = v.Dataset
		replicaDS[v.ID] = v.Dataset
	case string:
		name = replicaDS[v]
	}
	h := fnv.New32a()
	h.Write([]byte(name))
	return int(h.Sum32() % uint32(n))
}

// splitLegacy writes dst as the n-shard directory the sharded catalog
// would have left for the history in src's log.
func splitLegacy(t *testing.T, src, dst string, n int) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	logs := make([][]byte, n)
	replicaDS := make(map[string]string)
	for _, r := range logRecords(t, src) {
		i := legacyHome(r, replicaDS, n)
		logs[i] = append(logs[i], jsonLine(t, r)...)
	}
	for i, log := range logs {
		if err := os.WriteFile(legacyWALPath(dst, i), log, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	meta := fmt.Sprintf(`{"shards":%d,"snapshot_format":"json/v1"}`, n)
	if err := os.WriteFile(filepath.Join(dst, legacyMetaFile), []byte(meta), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestShardEquivalenceRandomized: a randomized history, laid out as the
// N-shard catalog would have logged it, converts to exactly the state
// the one-log catalog reaches — including derivations whose
// transformation sits in a higher-indexed log (the deferred replay).
func TestShardEquivalenceRandomized(t *testing.T) {
	for _, n := range []int{2, 3, 8, 64} {
		for seed := int64(0); seed < 4; seed++ {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", n, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed*977 + int64(n)))
				one, legacy := filepath.Join(t.TempDir(), "one"), filepath.Join(t.TempDir(), "legacy")
				ref, err := Open(one, dtype.StandardRegistry(), Options{})
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range randomHistory(rng, "h-", 400, true) {
					m(ref)
				}
				if err := ref.Close(); err != nil {
					t.Fatal(err)
				}
				splitLegacy(t, one, legacy, n)
				got, err := Open(legacy, dtype.StandardRegistry(), Options{})
				if err != nil {
					t.Fatal(err)
				}
				defer got.Close()
				requireSameState(t, ref, got)
				if err := got.CheckIndexes(); err != nil {
					t.Fatal(err)
				}
				requireFiles(t, legacy, snapshotFile, walFile)
			})
		}
	}
}

// TestShardEquivalenceConcurrent runs disjoint-prefix histories from 16
// goroutines against a durable catalog, lays its log out as an 8-shard
// directory, and converts it: the result must equal both the live
// catalog and a serial replay, whatever the interleaving.
func TestShardEquivalenceConcurrent(t *testing.T) {
	const writers = 16
	histories := make([][]mutation, writers)
	for w := range histories {
		rng := rand.New(rand.NewSource(int64(w) + 31))
		histories[w] = randomHistory(rng, fmt.Sprintf("w%d-", w), 250, false)
	}

	one, legacy := filepath.Join(t.TempDir(), "one"), filepath.Join(t.TempDir(), "legacy")
	live, err := Open(one, dtype.StandardRegistry(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(hist []mutation) {
			defer wg.Done()
			for _, m := range hist {
				m(live) // errors are part of the history (duplicates etc.)
			}
		}(histories[w])
	}
	wg.Wait()
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}

	ref := New(dtype.StandardRegistry())
	for _, hist := range histories {
		for _, m := range hist {
			m(ref)
		}
	}
	requireSameState(t, ref, live)

	splitLegacy(t, one, legacy, 8)
	got, err := Open(legacy, dtype.StandardRegistry(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	requireSameState(t, ref, got)
	if err := got.CheckIndexes(); err != nil {
		t.Fatal(err)
	}
}

// TestShardLegacyDirSingleShard: a directory from before
// catalog-meta.json existed (wal.jsonl, no meta) reopens from its one
// log, and the deprecated Options.Shards changes nothing.
func TestShardLegacyDirSingleShard(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	populate(t, c)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	log := jsonLog(t, logRecords(t, dir))
	if err := os.WriteFile(filepath.Join(dir, legacyWALFile), log, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, walFile)); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(dir, nil, Options{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	requireSameState(t, c, c2)
	if logs, _ := filepath.Glob(filepath.Join(dir, "*.jsonl")); len(logs) > 0 {
		t.Errorf("reopen left or created JSON-lines logs %v", logs)
	}
}

// copyFixture copies a testdata directory's catalog files into dir.
func copyFixture(t testing.TB, fixture, dir string) {
	t.Helper()
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
}

// fixtureWant returns a fixture's canonical export bytes.
func fixtureWant(t testing.TB, fixture string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", fixture+"-want.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := json.Compact(&want, data); err != nil {
		t.Fatal(err)
	}
	return want.Bytes()
}

// requireExport checks c's canonical export against want.
func requireExport(t testing.TB, c *Catalog, want []byte) {
	t.Helper()
	if got := canonical(t, c); got != string(want) {
		t.Fatalf("export differs from the one the legacy catalog reopened:\n got: %s\nwant: %s", got, want)
	}
}

// TestLegacyShardedFixture converts a directory the 4-shard catalog
// wrote — types, compat, a removed replica, and derivations whose
// transformation sits in a higher-indexed log — and reopens it; then
// replays the crash between the conversion's snapshot and its log
// removal by putting the original logs and meta back beside the new
// snapshot.
func TestLegacyShardedFixture(t *testing.T) {
	want := fixtureWant(t, "sharded4")
	dir := t.TempDir()
	copyFixture(t, "sharded4", dir)

	open := func(stage string) {
		t.Helper()
		c, err := Open(dir, nil, Options{})
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		requireExport(t, c, want)
		if err := c.CheckIndexes(); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		requireFiles(t, dir, snapshotFile, walFile)
	}
	open("conversion")
	open("reopen")
	copyFixture(t, "sharded4", dir)
	open("crash before the logs were removed")
}

// TestOpenMetaShardCountBounds: a meta recording a shard count the
// sharded catalog could never have written is corrupt, not clamped.
func TestOpenMetaShardCountBounds(t *testing.T) {
	for _, n := range []int{-1, 65, 1 << 40} {
		dir := t.TempDir()
		meta := `{"shards":` + strconv.Itoa(n) + `}`
		if err := os.WriteFile(filepath.Join(dir, legacyMetaFile), []byte(meta), 0o644); err != nil {
			t.Fatal(err)
		}
		if c, err := Open(dir, nil, Options{}); err == nil {
			c.Close()
			t.Errorf("shards=%d: Open accepted the meta", n)
		}
	}
}

// FuzzOpenMeta writes arbitrary bytes as the meta of a directory
// holding the fixture's 4-shard logs: Open must not panic, and must
// either fail or reach exactly the fixture's state — never a catalog
// missing some log's records. Run `go test -fuzz FuzzOpenMeta
// ./internal/catalog` for a longer campaign.
func FuzzOpenMeta(f *testing.F) {
	want := fixtureWant(f, "sharded4")
	for _, seed := range []string{
		`{"shards":4,"snapshot_format":"json/v1"}`,
		`{"shards":4,"snapshot_format":"binary/v1"}`,
		`{"shards":4}`,
		`{"shards":8}`,
		`{"shards":2}`,
		`{"shards":1}`,
		`{"shards":64}`,
		`{"shards":65}`,
		`{"shards":-1}`,
		`{}`,
		`null`,
		`{"shards":4,"snapshot_format":"nope"}`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, meta []byte) {
		dir := t.TempDir()
		copyFixture(t, "sharded4", dir)
		if err := os.WriteFile(filepath.Join(dir, legacyMetaFile), meta, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := Open(dir, nil, Options{})
		if err != nil {
			return // rejection is fine; panics and lost records are not
		}
		defer c.Close()
		requireExport(t, c, want)
	})
}

// TestLegacyJSONLFixture converts testdata/jsonl1 — a directory the
// JSON-lines catalog wrote: a JSON snapshot, then every op kind in
// wal.jsonl — and reopens it: both must reach exactly the export that
// catalog reopened it to (testdata/jsonl1-want.json).
func TestLegacyJSONLFixture(t *testing.T) {
	want := fixtureWant(t, "jsonl1")
	dir := t.TempDir()
	copyFixture(t, "jsonl1", dir)
	for _, stage := range []string{"conversion", "reopen"} {
		c, err := Open(dir, nil, Options{})
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		requireExport(t, c, want)
		if err := c.CheckIndexes(); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		requireFiles(t, dir, snapshotFile, walFile)
	}
}

// TestLegacyJSONLConversionCrash crashes the conversion of testdata/
// jsonl1 after each of its steps — at every directory sync Open makes,
// once the sync is done — and reopens: every reopen must reach the
// fixture's state, with no record applied twice. The last crash point
// of the conversion is between the logs' removal and the meta's.
func TestLegacyJSONLConversionCrash(t *testing.T) {
	want := fixtureWant(t, "jsonl1")
	prev := syncDir
	t.Cleanup(func() { syncDir = prev })
	metaLast := false
	for crashAt := 1; ; crashAt++ {
		dir := t.TempDir()
		copyFixture(t, "jsonl1", dir)
		syncs := 0
		syncDir = func(d string) error {
			if err := prev(d); err != nil {
				return err
			}
			if syncs++; syncs == crashAt {
				return fmt.Errorf("crash after directory sync %d", syncs)
			}
			return nil
		}
		c, err := Open(dir, nil, Options{})
		syncDir = prev
		if err == nil {
			// Open made fewer syncs than crashAt: every step is covered.
			c.Close()
			if crashAt <= 4 || !metaLast {
				t.Fatalf("conversion made only %d directory syncs; a crash with the logs gone and the meta left: %v", syncs, metaLast)
			}
			return
		}
		_, logErr := os.Stat(filepath.Join(dir, legacyWALFile))
		_, metaErr := os.Stat(filepath.Join(dir, legacyMetaFile))
		metaLast = metaLast || os.IsNotExist(logErr) && metaErr == nil
		for _, stage := range []string{"reopen", "second reopen"} {
			c, err := Open(dir, nil, Options{})
			if err != nil {
				t.Fatalf("crash after sync %d, %s: %v", crashAt, stage, err)
			}
			requireExport(t, c, want)
			if err := c.CheckIndexes(); err != nil {
				t.Fatalf("crash after sync %d, %s: %v", crashAt, stage, err)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			requireFiles(t, dir, snapshotFile, walFile)
		}
	}
}

// TestLegacyLargeLineConverts: a wal.jsonl whose line is longer than
// the 16 MiB the JSON-lines reader once capped lines at — a 3 MiB
// attribute of '<', escaped to 18 MiB — converts instead of leaving the
// directory unopenable.
func TestLegacyLargeLineConverts(t *testing.T) {
	dir := t.TempDir()
	big := strings.Repeat("<", 3<<20)
	log := jsonLog(t, []logRecord{
		{opDataset, schema.Dataset{Name: "big", Attrs: schema.Attributes{"blob": big}}},
		{opDataset, schema.Dataset{Name: "after"}},
	})
	if len(log) <= 16<<20 {
		t.Fatalf("log is %d bytes; the test needs a line past 16 MiB", len(log))
	}
	if err := os.WriteFile(filepath.Join(dir, legacyWALFile), log, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, legacyMetaFile), []byte(`{"snapshot_format":"json/v1"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{"conversion", "reopen"} {
		c, err := Open(dir, nil, Options{})
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		ds, err := c.Dataset("big")
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if ds.Attrs["blob"] != big {
			t.Fatalf("%s: attribute is %d bytes, want %d", stage, len(ds.Attrs["blob"]), len(big))
		}
		if _, err := c.Dataset("after"); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		requireFiles(t, dir, snapshotFile, walFile)
	}
}

// TestOpenRefusesTwoLogs: records in wal.jsonl and a non-empty wal.bin
// have no order between them — a directory only holds both after a
// binary that writes JSON lines reopened one written in frames — so
// Open refuses it rather than guess.
func TestOpenRefusesTwoLogs(t *testing.T) {
	dir := populatedDir(t, false, nil)
	line := jsonLine(t, logRecord{opDataset, schema.Dataset{Name: "later"}})
	if err := os.WriteFile(filepath.Join(dir, legacyWALFile), line, 0o644); err != nil {
		t.Fatal(err)
	}
	if c, err := Open(dir, nil, Options{}); err == nil {
		c.Close()
		t.Fatal("Open replayed a JSON-lines and a binary log together")
	}
}
