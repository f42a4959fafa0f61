package catalog

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"chimera/internal/schema"
)

// checkNameTree verifies the B-tree's shape: keys strictly ascending
// within and across nodes, no node over maxNameKeys, every inner node
// with one more child than keys, and every leaf at one depth.
func checkNameTree(t *testing.T, ix *nameIndex) {
	t.Helper()
	leafDepth := -1
	var walk func(n *nameNode, depth int, lo, hi *string)
	walk = func(n *nameNode, depth int, lo, hi *string) {
		if len(n.keys) > maxNameKeys {
			t.Fatalf("node holds %d keys, bound %d", len(n.keys), maxNameKeys)
		}
		for i, k := range n.keys {
			if (i > 0 && n.keys[i-1] >= k) || (lo != nil && k <= *lo) || (hi != nil && k >= *hi) {
				t.Fatalf("key %q out of order", k)
			}
		}
		if n.kids == nil {
			if leafDepth < 0 {
				leafDepth = depth
			} else if depth != leafDepth {
				t.Fatalf("leaves at depths %d and %d", leafDepth, depth)
			}
			return
		}
		if len(n.kids) != len(n.keys)+1 {
			t.Fatalf("inner node with %d keys has %d children", len(n.keys), len(n.kids))
		}
		for i, kid := range n.kids {
			l, h := lo, hi
			if i > 0 {
				l = &n.keys[i-1]
			}
			if i < len(n.keys) {
				h = &n.keys[i]
			}
			walk(kid, depth+1, l, h)
		}
	}
	if ix.root != nil {
		walk(ix.root, 0, nil, nil)
	}
}

// prefixOf is the reference a prefix range must equal: the sorted set's
// members that start with prefix.
func prefixOf(sorted []string, prefix string) []string {
	var out []string
	for _, s := range sorted {
		if strings.HasPrefix(s, prefix) {
			out = append(out, s)
		}
	}
	return out
}

func rangeAll(ix *nameIndex, prefix string) []string {
	var out []string
	ix.rangePrefix(prefix, func(s string) bool {
		out = append(out, s)
		return true
	})
	return out
}

// TestNameIndexMatchesSortedSet inserts random names — with repeats, in
// random, ascending and descending order — and checks the tree's shape,
// its in-order keys and its prefix ranges against a sorted reference,
// including prefixes that end in 0xff bytes, empty ranges and early
// stops.
func TestNameIndexMatchesSortedSet(t *testing.T) {
	alphabet := []string{"a", "b", "c", ".", "\xff", "\xfe", "0", "9"}
	for seed := int64(0); seed < 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		var names []string
		for i := 0; i < 3000; i++ {
			var b strings.Builder
			for n := 1 + r.Intn(6); n > 0; n-- {
				b.WriteString(alphabet[r.Intn(len(alphabet))])
			}
			names = append(names, b.String())
		}
		switch seed % 3 {
		case 1:
			slices.Sort(names)
		case 2:
			slices.Sort(names)
			slices.Reverse(names)
		}
		var ix nameIndex
		set := map[string]bool{}
		for i, s := range names {
			ix.insert(s)
			set[s] = true
			if i%500 == 0 {
				checkNameTree(t, &ix)
			}
		}
		checkNameTree(t, &ix)
		want := sortedKeys(set)
		if got := ix.keys(); !slices.Equal(got, want) || ix.n != len(want) {
			t.Fatalf("seed %d: %d keys (n=%d), want %d", seed, len(got), ix.n, len(want))
		}
		prefixes := []string{"", "a", "\xff", "\xff\xff", "a\xff", "\xfe\xff", "zz", "9."}
		for i := 0; i < 50; i++ {
			w := want[r.Intn(len(want))]
			prefixes = append(prefixes, w[:1+r.Intn(len(w))])
		}
		for _, p := range prefixes {
			if got, want := rangeAll(&ix, p), prefixOf(want, p); !slices.Equal(got, want) {
				t.Fatalf("seed %d prefix %q: got %d names, want %d", seed, p, len(got), len(want))
			}
		}
		// fn returning false stops the range at once.
		var seen []string
		ix.rangePrefix("", func(s string) bool {
			seen = append(seen, s)
			return len(seen) < 7
		})
		if !slices.Equal(seen, want[:7]) {
			t.Fatalf("seed %d: early stop saw %q", seed, seen)
		}
	}
}

// TestOrderedIndexesAfterReplayAndSnapshot fills a catalog past one
// B-tree node, in shuffled order, and checks the ordered indexes equal
// the sorted keys live, after WAL replay and after snapshot load.
func TestOrderedIndexesAfterReplayAndSnapshot(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	for _, i := range r.Perm(700) {
		if err := c.AddDataset(schema.Dataset{Name: fmt.Sprintf("ds.%03d", i)}); err != nil {
			t.Fatal(err)
		}
		if i%7 == 0 {
			if err := c.AddTransformation(idxTR(fmt.Sprintf("t%03d", i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	mustCheck(t, c, "live mutations")
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustCheck(t, c2, "WAL replay")
	if err := c2.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	c3, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	mustCheck(t, c3, "snapshot load")
	v := c3.View()
	defer v.Close()
	var got []string
	v.RangeDatasetNames("ds.04", func(name string) bool {
		got = append(got, name)
		return true
	})
	if len(got) != 10 || got[0] != "ds.040" || got[9] != "ds.049" {
		t.Fatalf("RangeDatasetNames(ds.04) = %q", got)
	}
}

// TestCheckIndexesCatchesOrderedIndexDrift proves the ordered-index
// check has teeth: a name the map does not hold is reported.
func TestCheckIndexesCatchesOrderedIndexDrift(t *testing.T) {
	c := New(nil)
	if err := c.AddDataset(schema.Dataset{Name: "a"}); err != nil {
		t.Fatal(err)
	}
	mustCheck(t, c, "AddDataset")
	c.idx.dsNames.insert("ghost")
	if err := c.CheckIndexes(); err == nil || !strings.Contains(err.Error(), "dsNames") {
		t.Fatalf("CheckIndexes = %v, want a dsNames divergence", err)
	}
}
