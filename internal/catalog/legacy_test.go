package catalog_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"chimera/internal/catalog"
	"chimera/internal/codec"
	"chimera/internal/dtype"
	"chimera/internal/migrate"
	"chimera/internal/schema"
)

// Legacy directories. Open reads one layout, snapshot.bin + wal.bin, and
// refuses every file an earlier build wrote; `chimera migrate`
// (internal/migrate) converts such a directory, after which Open must
// reach exactly the state the earlier build reopened it to. The
// fixtures under internal/migrate/testdata were written by those
// builds: jsonl1 by the JSON-lines catalog, sharded4 by the 4-shard
// catalog, each beside the canonical export that catalog reopened it to
// (<fixture>-want.json). The randomized tests build sharded directories
// from a one-log history by routing each record to the shard the
// sharded catalog homed it on.

const (
	snapshotFile = "snapshot.bin"
	walFile      = "wal.bin"
	jsonLogFile  = "wal.jsonl"
	metaFile     = "catalog-meta.json"
)

// opNames are the JSON-lines log's names for the record kinds.
var opNames = map[codec.RecordKind]string{
	codec.RecType:           "type",
	codec.RecDataset:        "dataset",
	codec.RecTransformation: "transformation",
	codec.RecDerivation:     "derivation",
	codec.RecInvocation:     "invocation",
	codec.RecReplica:        "replica",
	codec.RecRemoveReplica:  "remove-replica",
	codec.RecCompat:         "compat",
}

// jsonLine encodes a record as the JSON-lines log wrote it.
func jsonLine(t testing.TB, r codec.Record) []byte {
	t.Helper()
	name, ok := opNames[r.Kind]
	if !ok {
		t.Fatalf("unknown record kind %d", r.Kind)
	}
	data, err := json.Marshal(r.Value)
	if err != nil {
		t.Fatal(err)
	}
	line, err := json.Marshal(struct {
		Op   string          `json:"op"`
		Data json.RawMessage `json:"data"`
	}{name, data})
	if err != nil {
		t.Fatal(err)
	}
	return append(line, '\n')
}

// jsonLog encodes records as a JSON-lines log.
func jsonLog(t testing.TB, recs []codec.Record) []byte {
	var log []byte
	for _, r := range recs {
		log = append(log, jsonLine(t, r)...)
	}
	return log
}

// populatedLog returns catalog.Populate's history as the binary log
// records a durable catalog wrote for it.
func populatedLog(t testing.TB) []codec.Record {
	t.Helper()
	dir := t.TempDir()
	c, err := catalog.Open(dir, nil, catalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	catalog.Populate(t, c)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	return catalog.LogRecords(t, dir)
}

// writeFile writes data as dir/name.
func writeFile(t testing.TB, dir, name string, data []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// migrateDir converts dir with the seed its catalog was opened with,
// failing the test on error.
func migrateDir(t testing.TB, dir string, seed *dtype.Registry) {
	t.Helper()
	if _, err := migrate.Dir(dir, seed); err != nil {
		t.Fatalf("migrate: %v", err)
	}
}

// openDir opens dir, failing the test on error; the catalog closes
// when the test ends.
func openDir(t testing.TB, dir string, seed *dtype.Registry, opts catalog.Options) *catalog.Catalog {
	t.Helper()
	c, err := catalog.Open(dir, seed, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// legacyHome is the shard an N-shard catalog logged a record on:
// FNV-1a of the object's home name (a replica's dataset, an
// invocation's derivation, a transformation's versionless base; types
// and compat on shard 0). replicaDS remembers each replica's dataset,
// which homes its removal.
func legacyHome(r codec.Record, replicaDS map[string]string, n int) int {
	var name string
	switch v := r.Value.(type) {
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
	for _, r := range catalog.LogRecords(t, src) {
		i := legacyHome(r, replicaDS, n)
		logs[i] = append(logs[i], jsonLine(t, r)...)
	}
	for i, log := range logs {
		writeFile(t, dst, "wal-"+strconv.Itoa(i)+".jsonl", log)
	}
	writeFile(t, dst, metaFile, []byte(fmt.Sprintf(`{"shards":%d,"snapshot_format":"json/v1"}`, n)))
}

// TestShardEquivalenceRandomized: a randomized history, laid out as the
// N-shard catalog would have logged it, migrates to exactly the state
// the one-log catalog reaches — including derivations whose
// transformation sits in a higher-indexed log.
func TestShardEquivalenceRandomized(t *testing.T) {
	for _, n := range []int{2, 3, 8, 64} {
		for seed := int64(0); seed < 4; seed++ {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", n, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed*977 + int64(n)))
				one, legacy := filepath.Join(t.TempDir(), "one"), filepath.Join(t.TempDir(), "legacy")
				ref, err := catalog.Open(one, dtype.StandardRegistry(), catalog.Options{})
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range catalog.RandomHistory(rng, "h-", 400, true) {
					m(ref)
				}
				if err := ref.Close(); err != nil {
					t.Fatal(err)
				}
				splitLegacy(t, one, legacy, n)
				migrateDir(t, legacy, dtype.StandardRegistry())
				got := openDir(t, legacy, dtype.StandardRegistry(), catalog.Options{})
				catalog.RequireSameState(t, ref, got)
				if err := got.CheckIndexes(); err != nil {
					t.Fatal(err)
				}
				catalog.RequireFiles(t, legacy, snapshotFile, walFile)
			})
		}
	}
}

// TestShardEquivalenceConcurrent runs disjoint-prefix histories from 16
// goroutines against a durable catalog, lays its log out as an 8-shard
// directory, and migrates it: the result must equal both the live
// catalog and a serial replay, whatever the interleaving.
func TestShardEquivalenceConcurrent(t *testing.T) {
	const writers = 16
	histories := make([][]catalog.Mutation, writers)
	for w := range histories {
		rng := rand.New(rand.NewSource(int64(w) + 31))
		histories[w] = catalog.RandomHistory(rng, fmt.Sprintf("w%d-", w), 250, false)
	}

	one, legacy := filepath.Join(t.TempDir(), "one"), filepath.Join(t.TempDir(), "legacy")
	live, err := catalog.Open(one, dtype.StandardRegistry(), catalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(hist []catalog.Mutation) {
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

	ref := catalog.New(dtype.StandardRegistry())
	for _, hist := range histories {
		for _, m := range hist {
			m(ref)
		}
	}
	catalog.RequireSameState(t, ref, live)

	splitLegacy(t, one, legacy, 8)
	migrateDir(t, legacy, dtype.StandardRegistry())
	got := openDir(t, legacy, dtype.StandardRegistry(), catalog.Options{})
	catalog.RequireSameState(t, ref, got)
	if err := got.CheckIndexes(); err != nil {
		t.Fatal(err)
	}
}

// TestShardLegacyDirSingleShard: a directory from before
// catalog-meta.json existed (wal.jsonl, no meta) migrates from its one
// log, and the deprecated Options.Shards changes nothing.
func TestShardLegacyDirSingleShard(t *testing.T) {
	src := catalog.New(nil)
	catalog.Populate(t, src)
	dir := t.TempDir()
	writeFile(t, dir, jsonLogFile, jsonLog(t, populatedLog(t)))
	migrateDir(t, dir, nil)
	c := openDir(t, dir, nil, catalog.Options{Shards: 8})
	catalog.RequireSameState(t, src, c)
	if logs, _ := filepath.Glob(filepath.Join(dir, "*.jsonl")); len(logs) > 0 {
		t.Errorf("migrate left or created JSON-lines logs %v", logs)
	}
}

// fixturePath is where the migrator's fixtures live.
func fixturePath(name string) string { return filepath.Join("..", "migrate", "testdata", name) }

// copyFixture copies a fixture directory's catalog files into dir.
func copyFixture(t testing.TB, fixture, dir string) {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(fixturePath(fixture), "*"))
	if err != nil || len(names) == 0 {
		t.Fatalf("fixture: %v %v", names, err)
	}
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		writeFile(t, dir, filepath.Base(name), data)
	}
}

// fixtureWant returns a fixture's canonical export bytes.
func fixtureWant(t testing.TB, fixture string) string {
	t.Helper()
	data, err := os.ReadFile(fixturePath(fixture + "-want.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := json.Compact(&want, data); err != nil {
		t.Fatal(err)
	}
	return want.String()
}

// requireFixture opens dir and checks it against the fixture's export
// and its own indexes, and that dir holds the one layout.
func requireFixture(t testing.TB, dir, want, stage string) {
	t.Helper()
	c, err := catalog.Open(dir, nil, catalog.Options{})
	if err != nil {
		t.Fatalf("%s: %v", stage, err)
	}
	if got := catalog.Canonical(t, c); got != want {
		t.Fatalf("%s: export differs from the one the legacy catalog reopened:\n got: %s\nwant: %s", stage, got, want)
	}
	if err := c.CheckIndexes(); err != nil {
		t.Fatalf("%s: %v", stage, err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	catalog.RequireFiles(t, dir, snapshotFile, walFile)
}

// TestLegacyShardedFixture migrates a directory the 4-shard catalog
// wrote — types, compat, a removed replica, and derivations whose
// transformation sits in a higher-indexed log — and opens it; then
// replays the crash between the migration's snapshot and its log
// removal by putting the original logs and meta back beside the new
// snapshot, and migrates again.
func TestLegacyShardedFixture(t *testing.T) {
	want := fixtureWant(t, "sharded4")
	dir := t.TempDir()
	copyFixture(t, "sharded4", dir)
	migrateDir(t, dir, nil)
	requireFixture(t, dir, want, "migrate")
	requireFixture(t, dir, want, "reopen")
	copyFixture(t, "sharded4", dir)
	migrateDir(t, dir, nil)
	requireFixture(t, dir, want, "crash before the logs were removed")
}

// TestOpenMetaShardCountBounds: a meta recording a shard count the
// sharded catalog could never have written is corrupt, not clamped.
func TestOpenMetaShardCountBounds(t *testing.T) {
	for _, n := range []int{-1, 65, 1 << 40} {
		dir := t.TempDir()
		writeFile(t, dir, metaFile, []byte(`{"shards":`+strconv.Itoa(n)+`}`))
		if _, err := migrate.Dir(dir, nil); err == nil {
			t.Errorf("shards=%d: migrate accepted the meta", n)
		}
	}
}

// FuzzOpenMeta writes arbitrary bytes as the meta of a directory
// holding the fixture's 4-shard logs: migrate must not panic, and must
// either fail or convert to exactly the fixture's state — never a
// catalog missing some log's records. Run `go test -fuzz FuzzOpenMeta
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
		writeFile(t, dir, metaFile, meta)
		if _, err := migrate.Dir(dir, nil); err != nil {
			return // rejection is fine; panics and lost records are not
		}
		requireFixture(t, dir, want, "migrated")
	})
}

// TestLegacyJSONLFixture migrates testdata/jsonl1 — a directory the
// JSON-lines catalog wrote: a JSON snapshot, then every op kind in
// wal.jsonl — and opens it twice: both must reach exactly the export
// that catalog reopened it to (testdata/jsonl1-want.json).
func TestLegacyJSONLFixture(t *testing.T) {
	want := fixtureWant(t, "jsonl1")
	dir := t.TempDir()
	copyFixture(t, "jsonl1", dir)
	migrateDir(t, dir, nil)
	requireFixture(t, dir, want, "migrate")
	requireFixture(t, dir, want, "reopen")
}

// TestLegacyLargeLineConverts: a wal.jsonl whose line is longer than
// the 16 MiB the JSON-lines reader once capped lines at — a 3 MiB
// attribute of '<', escaped to 18 MiB — migrates instead of leaving the
// directory unopenable.
func TestLegacyLargeLineConverts(t *testing.T) {
	dir := t.TempDir()
	big := strings.Repeat("<", 3<<20)
	log := jsonLog(t, []codec.Record{
		{Kind: codec.RecDataset, Value: schema.Dataset{Name: "big", Attrs: schema.Attributes{"blob": big}}},
		{Kind: codec.RecDataset, Value: schema.Dataset{Name: "after"}},
	})
	if len(log) <= 16<<20 {
		t.Fatalf("log is %d bytes; the test needs a line past 16 MiB", len(log))
	}
	writeFile(t, dir, jsonLogFile, log)
	writeFile(t, dir, metaFile, []byte(`{"snapshot_format":"json/v1"}`))
	migrateDir(t, dir, nil)
	for _, stage := range []string{"migrate", "reopen"} {
		c, err := catalog.Open(dir, nil, catalog.Options{})
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
		catalog.RequireFiles(t, dir, snapshotFile, walFile)
	}
}

// TestOpenRefusesTwoLogs: records in wal.jsonl and a non-empty wal.bin
// have no order between them — a directory only holds both after a
// binary that writes JSON lines reopened one written in frames — so
// migrate refuses it rather than guess, and Open refuses it as legacy.
func TestOpenRefusesTwoLogs(t *testing.T) {
	dir := t.TempDir()
	c := openDir(t, dir, nil, catalog.Options{})
	catalog.Populate(t, c)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	writeFile(t, dir, jsonLogFile, jsonLine(t, codec.Record{Kind: codec.RecDataset, Value: schema.Dataset{Name: "later"}}))
	if _, err := migrate.Dir(dir, nil); err == nil {
		t.Fatal("migrate folded a JSON-lines and a binary log together")
	}
	if c, err := catalog.Open(dir, nil, catalog.Options{}); err == nil {
		c.Close()
		t.Fatal("Open replayed a JSON-lines and a binary log together")
	}
}

// FuzzReplayJSONL feeds arbitrary bytes to migrate as a directory's
// wal.jsonl: migrate must fail or succeed, never panic, and a catalog
// it converts must open with secondary indexes equal to a rebuild from
// its primary maps. Its seeds are catalog.Populate's history as JSON
// lines, that log torn at every byte of its last line, and a mid-file
// bit flip followed by valid lines (which must be rejected). Run `go
// test -fuzz FuzzReplayJSONL ./internal/catalog` for a longer campaign.
func FuzzReplayJSONL(f *testing.F) {
	valid := jsonLog(f, populatedLog(f))
	f.Add(valid)
	last := bytes.LastIndexByte(valid[:len(valid)-1], '\n') + 1
	for i := last; i < len(valid); i++ {
		f.Add(valid[:i])
	}
	flipped := bytes.Clone(valid)
	flipped[bytes.IndexByte(valid, '\n')+1] ^= 0x01 // the second record's '{'
	dir := f.TempDir()
	writeFile(f, dir, jsonLogFile, flipped)
	if _, err := migrate.Dir(dir, nil); err == nil {
		f.Fatal("a corrupt mid-file record followed by valid ones migrated without error")
	}
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, log []byte) {
		dir := t.TempDir()
		writeFile(t, dir, jsonLogFile, log)
		if _, err := migrate.Dir(dir, nil); err != nil {
			return // rejection is fine; panics are not
		}
		if err := openDir(t, dir, nil, catalog.Options{}).CheckIndexes(); err != nil {
			t.Fatal(err)
		}
	})
}

// writeJSONSnapshot writes exp as the snapshot.json a json/v1 directory
// holds, beside a meta, the way the JSON snapshot writer left them.
func writeJSONSnapshot(t testing.TB, dir string, exp catalog.Export, meta string) {
	t.Helper()
	data, err := json.Marshal(exp)
	if err != nil {
		t.Fatal(err)
	}
	writeFile(t, dir, "snapshot.json", append(data, '\n'))
	writeFile(t, dir, metaFile, []byte(meta))
}

// TestSnapshotFormatsEquivalent: a json/v1 directory — a meta pinning
// json/v1 beside a snapshot.json — migrates to the randomized catalog
// it was written from, leaving only snapshot.bin and wal.bin after
// Open, and survives a snapshot and a reopen unchanged.
func TestSnapshotFormatsEquivalent(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		src := catalog.New(nil)
		catalog.RandomCatalog(t, src, rand.New(rand.NewSource(seed)), 25)
		want := catalog.Canonical(t, src)
		dir := t.TempDir()
		writeJSONSnapshot(t, dir, src.Export(), `{"snapshot_format":"json/v1"}`)
		migrateDir(t, dir, nil)
		c, err := catalog.Open(dir, nil, catalog.Options{})
		if err != nil {
			t.Fatalf("seed %d: open: %v", seed, err)
		}
		if catalog.Canonical(t, c) != want {
			t.Fatalf("seed %d: the JSON snapshot migrated to a different export", seed)
		}
		if err := c.Snapshot(); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		catalog.RequireFiles(t, dir, snapshotFile, walFile)
		re, err := catalog.Open(dir, nil, catalog.Options{})
		if err != nil {
			t.Fatalf("seed %d: reopen: %v", seed, err)
		}
		if catalog.Canonical(t, re) != want {
			t.Fatalf("seed %d: the binary snapshot reopened to a different export", seed)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLegacyMetaAdoptsFormat: a directory with a pre-codec meta (shards
// only) and a JSON snapshot migrates to snapshot.bin alone, which holds
// the state.
func TestLegacyMetaAdoptsFormat(t *testing.T) {
	dir := t.TempDir()
	src := catalog.New(nil)
	catalog.Populate(t, src)
	writeJSONSnapshot(t, dir, src.Export(), `{"shards":1}`)
	migrateDir(t, dir, nil)
	catalog.RequireFiles(t, dir, snapshotFile)
	c := openDir(t, dir, nil, catalog.Options{})
	catalog.RequireSameState(t, src, c)
}

// TestUnknownSnapshotFormatRejected: the deprecated option accepts only
// binary/v1, and migrate refuses a meta naming a codec no build had.
func TestUnknownSnapshotFormatRejected(t *testing.T) {
	for _, format := range []string{"binary/v9", codec.JSONName} {
		_, err := catalog.Open(t.TempDir(), nil, catalog.Options{SnapshotFormat: format})
		if err == nil || !strings.Contains(err.Error(), "binary/v1 is the only snapshot format") {
			t.Fatalf("SnapshotFormat %q: Open returned %v", format, err)
		}
	}
	dir := t.TempDir()
	writeFile(t, dir, metaFile, []byte(`{"snapshot_format":"binary/v9"}`))
	if _, err := migrate.Dir(dir, nil); err == nil {
		t.Fatal("a meta naming an unknown snapshot format was accepted")
	}
}

// untrailedDir returns a directory whose snapshot.bin has lost its
// checksum trailer, as the binary snapshot writer left it before the
// trailer existed, and the export it holds.
func untrailedDir(t testing.TB) (dir, want string) {
	t.Helper()
	dir, want = catalog.SnapshotDir(t)
	path := filepath.Join(dir, snapshotFile)
	snap, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	writeFile(t, dir, snapshotFile, snap[:len(snap)-catalog.SnapTrailerLen])
	return dir, want
}

// TestUntrailedSnapshotLoads: a snapshot.bin without the checksum
// trailer migrates to a trailed one holding the same export.
func TestUntrailedSnapshotLoads(t *testing.T) {
	dir, want := untrailedDir(t)
	migrateDir(t, dir, nil)
	if got := catalog.Canonical(t, openDir(t, dir, nil, catalog.Options{})); got != want {
		t.Fatal("the untrailed snapshot migrated to a different export")
	}
}

// TestOpenRefusesLegacyLayouts: Open fails on every layout an earlier
// build wrote, names the command that converts it, and leaves the
// directory exactly as it was — no wal.bin created, nothing converted.
func TestOpenRefusesLegacyLayouts(t *testing.T) {
	cases := map[string]func(t *testing.T, dir string){
		"jsonl1":   func(t *testing.T, dir string) { copyFixture(t, "jsonl1", dir) },
		"sharded4": func(t *testing.T, dir string) { copyFixture(t, "sharded4", dir) },
		"snapshot.json": func(t *testing.T, dir string) {
			src := catalog.New(nil)
			catalog.Populate(t, src)
			data, err := json.Marshal(src.Export())
			if err != nil {
				t.Fatal(err)
			}
			writeFile(t, dir, "snapshot.json", data)
		},
		"catalog-meta.json": func(t *testing.T, dir string) {
			writeFile(t, dir, metaFile, []byte(`{"snapshot_format":"binary/v1"}`))
		},
		"stray shard log": func(t *testing.T, dir string) {
			writeFile(t, dir, "wal-3.jsonl", jsonLog(t, populatedLog(t)))
		},
		"untrailed snapshot.bin": func(t *testing.T, dir string) {
			src, _ := untrailedDir(t)
			data, err := os.ReadFile(filepath.Join(src, snapshotFile))
			if err != nil {
				t.Fatal(err)
			}
			writeFile(t, dir, snapshotFile, data)
		},
	}
	for name, setup := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			setup(t, dir)
			before := dirState(t, dir)
			c, err := catalog.Open(dir, nil, catalog.Options{})
			if err == nil {
				c.Close()
				t.Fatal("Open accepted a legacy layout")
			}
			if !strings.Contains(err.Error(), "chimera migrate -dir "+dir) {
				t.Fatalf("Open's error does not name the migrate command: %v", err)
			}
			if after := dirState(t, dir); !slices.Equal(after, before) {
				t.Fatalf("Open changed the directory:\nbefore %v\n after %v", before, after)
			}
		})
	}
}

// dirState lists each file of dir with its bytes.
func dirState(t testing.TB, dir string) []string {
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
