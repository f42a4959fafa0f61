package catalog

import (
	"slices"
	"strings"
)

// nameIndex is an insert-only ordered set of strings: the dataset names
// and transformation refs in key order, so that a prefix search ranges
// the names it answers instead of every name. It is a B-tree of at most
// maxNameKeys keys per node. An insert costs O(log n) comparisons and
// moves at most one node's keys (plus one per split on its way up), so
// no write pays in proportion to the catalog. Nothing removes a dataset
// or a transformation, so the tree has no delete.
type nameIndex struct {
	root *nameNode
	n    int
}

// nameNode is one B-tree node: its keys in order and, in an inner node,
// the len(keys)+1 subtrees between them. Both slices are allocated at
// their full capacity (newNameNode), so an insert never reallocates
// them.
type nameNode struct {
	keys []string
	kids []*nameNode // nil in a leaf
}

func newNameNode(inner bool) *nameNode {
	n := &nameNode{keys: make([]string, 0, maxNameKeys+1)}
	if inner {
		n.kids = make([]*nameNode, 0, maxNameKeys+2)
	}
	return n
}

// maxNameKeys bounds a node. 64 string headers are 1 KiB: one node's
// keys span a few cache lines, and a million names sit four levels deep.
const maxNameKeys = 64

// insert adds s; adding a key the set holds is a no-op.
func (t *nameIndex) insert(s string) {
	if t.root == nil {
		t.root = newNameNode(false)
	}
	added, mid, right := t.root.insert(s)
	if right != nil {
		root := newNameNode(true)
		root.keys = append(root.keys, mid)
		root.kids = append(root.kids, t.root, right)
		t.root = root
	}
	if added {
		t.n++
	}
}

// insert adds s below n. When n overflows it splits, and returns the
// middle key and the new right sibling for the parent to take.
func (n *nameNode) insert(s string) (added bool, mid string, right *nameNode) {
	i, found := slices.BinarySearch(n.keys, s)
	if found {
		return false, "", nil
	}
	if n.kids == nil {
		n.keys = slices.Insert(n.keys, i, s)
		added = true
	} else {
		if added, mid, right = n.kids[i].insert(s); right == nil {
			return added, "", nil
		}
		n.keys = slices.Insert(n.keys, i, mid)
		n.kids = slices.Insert(n.kids, i+1, right)
	}
	if len(n.keys) <= maxNameKeys {
		return added, "", nil
	}
	m := len(n.keys) / 2
	mid, right = n.keys[m], newNameNode(n.kids != nil)
	right.keys = append(right.keys, n.keys[m+1:]...)
	clear(n.keys[m:])
	n.keys = n.keys[:m]
	if n.kids != nil {
		right.kids = append(right.kids, n.kids[m+1:]...)
		clear(n.kids[m+1:])
		n.kids = n.kids[:m+1]
	}
	return added, mid, right
}

// ascend calls fn for every key >= from, in order, until fn returns
// false; it reports whether fn never did.
func (n *nameNode) ascend(from string, fn func(string) bool) bool {
	i, found := slices.BinarySearch(n.keys, from)
	if n.kids != nil && !found && !n.kids[i].ascend(from, fn) {
		return false
	}
	for ; i < len(n.keys); i++ {
		if !fn(n.keys[i]) {
			return false
		}
		if n.kids != nil && !n.kids[i+1].ascend(from, fn) {
			return false
		}
	}
	return true
}

// rangePrefix calls fn for every key that starts with prefix, in order,
// until fn returns false. It stops at the first key past the prefix
// rather than computing an upper bound, so any prefix — one ending in
// 0xff bytes too — ranges exactly its keys.
func (t *nameIndex) rangePrefix(prefix string, fn func(string) bool) {
	if t.root == nil {
		return
	}
	t.root.ascend(prefix, func(s string) bool {
		return strings.HasPrefix(s, prefix) && fn(s)
	})
}

// keys returns every key in order (CheckIndexes' view of the tree).
func (t *nameIndex) keys() []string {
	out := make([]string, 0, t.n)
	t.rangePrefix("", func(s string) bool {
		out = append(out, s)
		return true
	})
	return out
}
