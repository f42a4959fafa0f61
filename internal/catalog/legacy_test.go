package catalog

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

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

// legacyHome is the shard an N-shard catalog logged a record on:
// FNV-1a of the object's home name (a replica's dataset, an
// invocation's derivation, a transformation's versionless base; types
// and compat on shard 0). replicaDS remembers each replica's dataset,
// which homes its removal.
func legacyHome(t *testing.T, rec walRecord, replicaDS map[string]string, n int) int {
	t.Helper()
	var name string
	var err error
	switch rec.Op {
	case opType, opCompat:
		return 0
	case opDataset:
		var ds schema.Dataset
		err = json.Unmarshal(rec.Data, &ds)
		name = ds.Name
	case opTransformation:
		var tr schema.Transformation
		err = json.Unmarshal(rec.Data, &tr)
		name = schema.FormatTRRef(tr.Namespace, tr.Name, "")
	case opDerivation:
		var dv schema.Derivation
		err = json.Unmarshal(rec.Data, &dv)
		name = dv.ID
	case opInvocation:
		var iv schema.Invocation
		err = json.Unmarshal(rec.Data, &iv)
		name = iv.Derivation
	case opReplica:
		var r schema.Replica
		err = json.Unmarshal(rec.Data, &r)
		name = r.Dataset
		replicaDS[r.ID] = r.Dataset
	case opRemoveReplica:
		var id string
		err = json.Unmarshal(rec.Data, &id)
		name = replicaDS[id]
	default:
		t.Fatalf("unknown op %q", rec.Op)
	}
	if err != nil {
		t.Fatal(err)
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
	data, err := os.ReadFile(filepath.Join(src, walFile))
	if err != nil {
		t.Fatal(err)
	}
	logs := make([][]byte, n)
	replicaDS := make(map[string]string)
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var rec walRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		i := legacyHome(t, rec, replicaDS, n)
		logs[i] = append(append(logs[i], sc.Bytes()...), '\n')
	}
	for i, log := range logs {
		if err := os.WriteFile(legacyWALPath(dst, i), log, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	meta := fmt.Sprintf(`{"shards":%d,"snapshot_format":"json/v1"}`, n)
	if err := os.WriteFile(filepath.Join(dst, metaFile), []byte(meta), 0o644); err != nil {
		t.Fatal(err)
	}
}

// requireConverted checks a converted directory's layout: the one log,
// a snapshot, a meta without a shard count, and no per-shard log.
func requireConverted(t *testing.T, dir string) {
	t.Helper()
	for _, name := range []string{walFile, snapshotFile} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("converted directory lacks %s: %v", name, err)
		}
	}
	if logs, _ := filepath.Glob(filepath.Join(dir, "wal-*.jsonl")); len(logs) > 0 {
		t.Errorf("converted directory still holds %v", logs)
	}
	data, err := os.ReadFile(filepath.Join(dir, metaFile))
	if err != nil {
		t.Fatal(err)
	}
	var meta map[string]any
	if err := json.Unmarshal(data, &meta); err != nil {
		t.Fatal(err)
	}
	if _, ok := meta["shards"]; ok {
		t.Errorf("converted meta still records a shard count: %s", data)
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
				requireConverted(t, legacy)
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
	if err := os.Remove(filepath.Join(dir, metaFile)); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(dir, nil, Options{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	requireSameState(t, c, c2)
	if logs, _ := filepath.Glob(filepath.Join(dir, "wal-*.jsonl")); len(logs) > 0 {
		t.Errorf("reopen created per-shard logs %v", logs)
	}
}

// copyFixture copies testdata/sharded4's catalog files into dir.
func copyFixture(t testing.TB, dir string) {
	t.Helper()
	names, err := filepath.Glob(filepath.Join("testdata", "sharded4", "*"))
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

// fixtureWant returns the fixture's canonical export bytes.
func fixtureWant(t testing.TB) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "sharded4-want.json"))
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
	got, err := schema.CanonicalBytes(c.Export())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("export differs from the sharded catalog's:\n got: %s\nwant: %s", got, want)
	}
}

// TestLegacyShardedFixture converts a directory the 4-shard catalog
// wrote — types, compat, a removed replica, and derivations whose
// transformation sits in a higher-indexed log — and reopens it; then
// replays the crash between the conversion's snapshot and its log
// removal by putting the original logs and meta back beside the new
// snapshot.
func TestLegacyShardedFixture(t *testing.T) {
	want := fixtureWant(t)
	dir := t.TempDir()
	copyFixture(t, dir)

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
		requireConverted(t, dir)
	}
	open("conversion")
	open("reopen")
	copyFixture(t, dir)
	open("crash before the logs were removed")
}

// TestOpenMetaShardCountBounds: a meta recording a shard count the
// sharded catalog could never have written is corrupt, not clamped.
func TestOpenMetaShardCountBounds(t *testing.T) {
	for _, n := range []int{-1, 65, 1 << 40} {
		dir := t.TempDir()
		meta := `{"shards":` + strconv.Itoa(n) + `}`
		if err := os.WriteFile(filepath.Join(dir, metaFile), []byte(meta), 0o644); err != nil {
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
	want := fixtureWant(f)
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
		copyFixture(t, dir)
		if err := os.WriteFile(filepath.Join(dir, metaFile), meta, 0o644); err != nil {
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
