package catalog

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"chimera/internal/codec"
	"chimera/internal/schema"
)

// randomCatalog drives a seeded object mix through the public mutation
// API — the randomized source for the cross-codec snapshot oracle.
func randomCatalog(t testing.TB, c *Catalog, rng *rand.Rand, n int) {
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

// requireFiles checks that dir holds exactly the named files.
func requireFiles(t testing.TB, dir string, want ...string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	slices.Sort(want)
	if !slices.Equal(names, want) {
		t.Fatalf("directory holds %v, want %v", names, want)
	}
}

// canonical returns c's canonical export bytes.
func canonical(t testing.TB, c *Catalog) string {
	t.Helper()
	b, err := schema.CanonicalBytes(c.Export())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestBinarySnapshotFilesAndPinning: the deprecated SnapshotFormat
// option accepts binary/v1, the directory holds no meta, and the state
// survives reopen.
func TestBinarySnapshotFilesAndPinning(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, nil, Options{SnapshotFormat: codec.BinaryName})
	if err != nil {
		t.Fatal(err)
	}
	populate(t, c)
	want := canonical(t, c)
	if err := c.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	requireFiles(t, dir, snapshotFile, walFile)
	for _, stage := range []string{"reopen", "second reopen"} {
		re, err := Open(dir, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if canonical(t, re) != want {
			t.Fatalf("%s: state changed across binary snapshot reopen", stage)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestNewDirectoryIsBinary: a new directory is binary end to end — log
// and snapshot — and holds nothing else.
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
	requireFiles(t, dir, snapshotFile, walFile)
	if recs := logRecords(t, dir); len(recs) != 1 || recs[0].Kind != codec.RecDataset {
		t.Fatalf("log after the snapshot holds %v, want the one dataset", recs)
	}
}

// snapshotDir writes a multi-object catalog's snapshot.bin (and an
// empty wal.bin) into a new directory and returns the directory and
// the catalog's canonical export.
func snapshotDir(t testing.TB) (dir, want string) {
	t.Helper()
	dir = t.TempDir()
	c, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	randomCatalog(t, c, rand.New(rand.NewSource(1)), 3)
	want = canonical(t, c)
	if err := c.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, want
}

// TestSnapshotBitFlipRejected flips, one at a time, every bit of a
// multi-object snapshot.bin: each reopen must fail or reach exactly the
// original export — never a different catalog.
func TestSnapshotBitFlipRejected(t *testing.T) {
	dir, want := snapshotDir(t)
	path := filepath.Join(dir, snapshotFile)
	snap, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for bit := 0; bit < 8*len(snap); bit++ {
		flipped := bytes.Clone(snap)
		flipped[bit/8] ^= 1 << (bit % 8)
		if err := os.WriteFile(path, flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := Open(dir, nil, Options{})
		if err != nil {
			continue
		}
		got := canonical(t, c)
		c.Close()
		if got != want {
			t.Fatalf("bit %d of byte %d (of %d) flipped: reopened to a different export", bit%8, bit/8, len(snap))
		}
	}
}
