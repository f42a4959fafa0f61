package catalog

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"chimera/internal/codec"
	"chimera/internal/dtype"
	"chimera/internal/schema"
)

// randomCatalog drives a seeded object mix through the public mutation
// API — the randomized source for the cross-codec snapshot oracle.
func randomCatalog(t *testing.T, c *Catalog, rng *rand.Rand, n int) {
	t.Helper()
	if err := c.AddTransformation(twoArg("t")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("ds-%d", i)
		ds := schema.Dataset{Name: name, Size: rng.Int63n(1 << 30)}
		if rng.Intn(2) == 0 {
			ds.Attrs = schema.Attributes{"run": fmt.Sprint(rng.Intn(50)), "site": "anl"}
		}
		if rng.Intn(3) == 0 {
			ds.Descriptor = schema.FileDescriptor{Path: "/store/" + name}
		}
		if err := c.AddDataset(ds); err != nil {
			t.Fatal(err)
		}
		if rng.Intn(2) == 0 {
			if _, err := c.AddDerivation(chainDV("t", name, name+".out")); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.AddReplica(schema.Replica{
			ID: fmt.Sprintf("rep-%d", i), Dataset: name,
			Site: fmt.Sprintf("site-%d", rng.Intn(4)), PFN: "/pfn/" + name,
			Size: ds.Size,
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSnapshotFormatsEquivalent is the catalog-level round-trip
// oracle: the same randomized catalog snapshotted under each codec
// must reopen to identical exports.
func TestSnapshotFormatsEquivalent(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		exports := map[string]Export{}
		for _, format := range []string{codec.JSONName, codec.BinaryName} {
			dir := t.TempDir()
			c, err := Open(dir, nil, Options{SnapshotFormat: format})
			if err != nil {
				t.Fatal(err)
			}
			randomCatalog(t, c, rand.New(rand.NewSource(seed)), 25)
			if err := c.Snapshot(); err != nil {
				t.Fatalf("%s: snapshot: %v", format, err)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := Open(dir, nil, Options{})
			if err != nil {
				t.Fatalf("%s: reopen: %v", format, err)
			}
			exports[format] = re.Export()
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
		}
		ja, _ := schema.CanonicalBytes(exports[codec.JSONName])
		jb, _ := schema.CanonicalBytes(exports[codec.BinaryName])
		if string(ja) != string(jb) {
			t.Fatalf("seed %d: exports differ across snapshot formats", seed)
		}
	}
}

func TestBinarySnapshotFilesAndPinning(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, nil, Options{SnapshotFormat: codec.BinaryName})
	if err != nil {
		t.Fatal(err)
	}
	populate(t, c)
	if err := c.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, binSnapshotFile)); err != nil {
		t.Fatalf("binary snapshot missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotFile)); !os.IsNotExist(err) {
		t.Fatalf("JSON snapshot should be absent, stat err=%v", err)
	}
	meta, err := os.ReadFile(filepath.Join(dir, metaFile))
	if err != nil {
		t.Fatal(err)
	}
	var m catalogMeta
	if err := json.Unmarshal(meta, &m); err != nil {
		t.Fatal(err)
	}
	if m.SnapshotFormat != codec.BinaryName {
		t.Fatalf("meta pins %q, want %q", m.SnapshotFormat, codec.BinaryName)
	}

	// Reopen requesting JSON: the recorded pin wins.
	re, err := Open(dir, nil, Options{SnapshotFormat: codec.JSONName})
	if err != nil {
		t.Fatal(err)
	}
	orig, _ := schema.CanonicalBytes(re.Export())
	if re.snapFormat != codec.BinaryName {
		t.Fatalf("reopen format %q, want pinned %q", re.snapFormat, codec.BinaryName)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	after, _ := schema.CanonicalBytes(c2.Export())
	if string(orig) != string(after) {
		t.Fatal("state changed across binary snapshot reopen")
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLegacyMetaAdoptsFormat: a pre-codec meta (shards only) adopts
// the requested snapshot format on reopen and re-records it.
func TestLegacyMetaAdoptsFormat(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, nil, Options{SnapshotFormat: codec.JSONName})
	if err != nil {
		t.Fatal(err)
	}
	populate(t, c)
	if err := c.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// Rewrite the meta as a pre-codec catalog would have left it.
	if err := os.WriteFile(filepath.Join(dir, metaFile), []byte(`{"shards":1}`), 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, nil, Options{SnapshotFormat: codec.BinaryName})
	if err != nil {
		t.Fatal(err)
	}
	if re.snapFormat != codec.BinaryName {
		t.Fatalf("adopted format %q, want %q", re.snapFormat, codec.BinaryName)
	}
	// The legacy JSON snapshot must still load (self-describing read),
	// and the next Snapshot converts the directory.
	if err := re.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, binSnapshotFile)); err != nil {
		t.Fatalf("converted binary snapshot missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotFile)); !os.IsNotExist(err) {
		t.Fatalf("stale JSON snapshot not removed, stat err=%v", err)
	}

	final, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer final.Close()
	if _, err := final.Dataset("raw"); err != nil {
		t.Fatalf("converted catalog lost state: %v", err)
	}
}

// TestNewDirectoryIsBinary: a new directory opened with no format pins
// binary/v1, so it is binary end to end — log and snapshot.
func TestNewDirectoryIsBinary(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	populate(t, c)
	if err := c.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := c.AddDataset(schema.Dataset{Name: "after"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if c.snapFormat != codec.BinaryName {
		t.Fatalf("new directory pins %q, want %q", c.snapFormat, codec.BinaryName)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if want := []string{metaFile, binSnapshotFile, walFile}; !slices.Equal(names, want) {
		t.Fatalf("directory holds %v, want %v", names, want)
	}
	if recs := logRecords(t, dir); len(recs) != 1 || recs[0].op != opDataset {
		t.Fatalf("log after the snapshot holds %v, want the one dataset", recs)
	}
}

func TestUnknownSnapshotFormatRejected(t *testing.T) {
	if _, err := Open(t.TempDir(), nil, Options{SnapshotFormat: "binary/v9"}); err == nil {
		t.Fatal("unknown snapshot format accepted")
	}
}

// TestDeltaCodecConversion: journal deltas survive the round trip
// through the codec-neutral container.
func TestDeltaCodecConversion(t *testing.T) {
	c := New(dtype.NewRegistry())
	populate(t, c)
	d := c.ChangesSince(0, 0)
	d.Tombstones = append(d.Tombstones, Tombstone{Kind: "replica", ID: "gone"})
	back := DeltaFromCodec(d.CodecDelta())
	ja, _ := json.Marshal(d)
	jb, _ := json.Marshal(back)
	if string(ja) != string(jb) {
		t.Fatalf("delta conversion not lossless:\n%s\n---\n%s", ja, jb)
	}
}
