// Package dtype implements the Chimera dataset type model: a three-
// dimensional type space (semantic content, physical format, encoding)
// in which each dimension carries its own hierarchy of subtypes.
//
// A dataset type is a point in that space; a transformation's formal
// argument is a point or a union of points. Conformance — "may this
// dataset be passed for this formal argument?" — holds when, dimension
// by dimension, the dataset's type is a descendant of (or equal to) the
// formal's type. The empty string in a dimension denotes that
// dimension's base type and conforms to everything, so the fully empty
// Type{} is the untyped "Dataset" of the paper.
//
// There are no predefined base types beyond the three dimension roots:
// each community registers its own vocabulary in a Registry.
package dtype

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Dimension identifies one of the three axes of the dataset type space.
type Dimension int

const (
	// Content is the semantic-content dimension ("Dataset-content").
	Content Dimension = iota
	// Format is the physical-representation dimension ("Dataset-format").
	Format
	// Encoding is the encoding dimension ("Dataset-encoding").
	Encoding

	numDimensions = 3
)

// String returns the paper's name for the dimension's base type.
func (d Dimension) String() string {
	switch d {
	case Content:
		return "Dataset-content"
	case Format:
		return "Dataset-format"
	case Encoding:
		return "Dataset-encoding"
	default:
		return fmt.Sprintf("Dimension(%d)", int(d))
	}
}

// Dimensions lists the three dimensions in canonical order.
func Dimensions() []Dimension { return []Dimension{Content, Format, Encoding} }

// Type is a fully or partially specified dataset type: one (possibly
// empty) type name per dimension. The zero value is the universal
// "Dataset" type.
type Type struct {
	Content  string `json:"content,omitempty"`
	Format   string `json:"format,omitempty"`
	Encoding string `json:"encoding,omitempty"`
}

// Universal is the untyped "Dataset" type to which every dataset
// conforms and which conforms only to itself.
var Universal = Type{}

// Get returns the type name in dimension d.
func (t Type) Get(d Dimension) string {
	switch d {
	case Content:
		return t.Content
	case Format:
		return t.Format
	case Encoding:
		return t.Encoding
	}
	return ""
}

// With returns a copy of t with dimension d set to name.
func (t Type) With(d Dimension, name string) Type {
	switch d {
	case Content:
		t.Content = name
	case Format:
		t.Format = name
	case Encoding:
		t.Encoding = name
	}
	return t
}

// IsUniversal reports whether t is the fully unspecified "Dataset" type.
func (t Type) IsUniversal() bool { return t == Type{} }

// String renders t as "content;format;encoding" with empty dimensions
// shown as "*". The universal type renders as "Dataset".
func (t Type) String() string {
	if t.IsUniversal() {
		return "Dataset"
	}
	part := func(s string) string {
		if s == "" {
			return "*"
		}
		return s
	}
	return part(t.Content) + ";" + part(t.Format) + ";" + part(t.Encoding)
}

// ParseType parses the representation produced by Type.String. The
// literal "Dataset" (any case) and the empty string parse to Universal.
// A single segment with no ';' is taken as a content-only type.
func ParseType(s string) (Type, error) {
	s = strings.TrimSpace(s)
	if s == "" || strings.EqualFold(s, "dataset") {
		return Universal, nil
	}
	parts := strings.Split(s, ";")
	if len(parts) > numDimensions {
		return Type{}, fmt.Errorf("dtype: %q has %d segments, want at most %d", s, len(parts), numDimensions)
	}
	var t Type
	for i, p := range parts {
		p = strings.TrimSpace(p)
		if p == "*" || p == "" {
			continue
		}
		t = t.With(Dimension(i), p)
	}
	return t, nil
}

// MustParseType is ParseType that panics on error; for tests and
// package-level variables.
func MustParseType(s string) Type {
	t, err := ParseType(s)
	if err != nil {
		panic(err)
	}
	return t
}

// Registry holds the subtype hierarchies for the three dimensions. The
// roots of the hierarchies are the three dimension base types, denoted
// by the empty name. A Registry is safe for concurrent use.
type Registry struct {
	mu     sync.RWMutex
	parent [numDimensions]map[string]string // name -> parent name ("" = dimension root)
}

// NewRegistry returns an empty registry containing only the three
// dimension roots.
func NewRegistry() *Registry {
	r := &Registry{}
	for i := range r.parent {
		r.parent[i] = make(map[string]string)
	}
	return r
}

// Register adds name to dimension d as a subtype of parent. An empty
// parent makes name a direct child of the dimension root. Registering
// an existing name with the same parent is a no-op; with a different
// parent it is an error, as is an unknown parent.
func (r *Registry) Register(d Dimension, name, parent string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	known, err := r.check(d, name, parent)
	if err == nil && !known {
		r.parent[d][name] = parent
	}
	return err
}

// Check reports what Register(d, name, parent) would do without doing
// it: the error it would return, or whether it would be a no-op because
// name is already registered under parent.
func (r *Registry) Check(d Dimension, name, parent string) (known bool, err error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.check(d, name, parent)
}

func (r *Registry) check(d Dimension, name, parent string) (known bool, err error) {
	if err := checkName(name); err != nil {
		return false, err
	}
	if d < 0 || int(d) >= numDimensions {
		return false, fmt.Errorf("dtype: invalid dimension %d", int(d))
	}
	m := r.parent[d]
	if parent != "" {
		if _, ok := m[parent]; !ok {
			return false, fmt.Errorf("dtype: parent type %q not registered in dimension %s", parent, d)
		}
	}
	if old, ok := m[name]; ok {
		if old != parent {
			return true, fmt.Errorf("dtype: type %q already registered in dimension %s with parent %q", name, d, old)
		}
		return true, nil
	}
	return false, nil
}

// MustRegister is Register that panics on error.
func (r *Registry) MustRegister(d Dimension, name, parent string) {
	if err := r.Register(d, name, parent); err != nil {
		panic(err)
	}
}

// Known reports whether name is registered in dimension d. The empty
// name (the dimension root) is always known.
func (r *Registry) Known(d Dimension, name string) bool {
	if name == "" {
		return true
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.parent[d][name]
	return ok
}

// CheckType reports an error if any non-empty dimension of t names an
// unregistered type.
func (r *Registry) CheckType(t Type) error {
	for _, d := range Dimensions() {
		if n := t.Get(d); n != "" && !r.Known(d, n) {
			return fmt.Errorf("dtype: unknown %s type %q", d, n)
		}
	}
	return nil
}

// IsSubtype reports whether sub is a descendant of, or equal to, super
// within dimension d. Every name is a subtype of the dimension root
// (the empty name). Unregistered names are subtypes only of themselves
// and the root.
func (r *Registry) IsSubtype(d Dimension, sub, super string) bool {
	if super == "" || sub == super {
		return true
	}
	if sub == "" {
		return false
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	m := r.parent[d]
	for cur := sub; ; {
		p, ok := m[cur]
		if !ok || p == "" {
			return false
		}
		if p == super {
			return true
		}
		cur = p
	}
}

// Conforms reports whether a dataset of type t may be bound to a formal
// argument of type formal: in every dimension, t must be a subtype of
// formal. The universal formal accepts everything.
func (r *Registry) Conforms(t, formal Type) bool {
	for _, d := range Dimensions() {
		if !r.IsSubtype(d, t.Get(d), formal.Get(d)) {
			return false
		}
	}
	return true
}

// ConformsUnion reports whether t conforms to at least one member of
// the union. An empty union accepts nothing.
func (r *Registry) ConformsUnion(t Type, union []Type) bool {
	for _, u := range union {
		if r.Conforms(t, u) {
			return true
		}
	}
	return false
}

// Ancestors returns the chain of ancestors of name in dimension d, from
// immediate parent up to (but excluding) the dimension root. It returns
// nil for unregistered names and for direct children of the root.
func (r *Registry) Ancestors(d Dimension, name string) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	m := r.parent[d]
	var out []string
	for cur := name; ; {
		p, ok := m[cur]
		if !ok || p == "" {
			return out
		}
		out = append(out, p)
		cur = p
	}
}

// Depth returns the number of edges between name and the dimension
// root: 0 for the root itself, 1 for a top-level type, and so on.
// Unregistered names report depth 1 (self under root).
func (r *Registry) Depth(d Dimension, name string) int {
	if name == "" {
		return 0
	}
	return len(r.Ancestors(d, name)) + 1
}

// Children returns the direct children of name (or of the dimension
// root if name is empty) in dimension d, sorted.
func (r *Registry) Children(d Dimension, name string) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []string
	for n, p := range r.parent[d] {
		if p == name {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// Names returns every registered name in dimension d, sorted.
func (r *Registry) Names(d Dimension) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.parent[d]))
	for n := range r.parent[d] {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Specificity is the total depth of t across all dimensions; a larger
// value means a more specific type. Discovery uses it to rank matches.
func (r *Registry) Specificity(t Type) int {
	s := 0
	for _, d := range Dimensions() {
		if n := t.Get(d); n != "" {
			s += r.Depth(d, n)
		}
	}
	return s
}

// entry is the serialized form of one registered type.
type entry struct {
	Dimension int    `json:"dim"`
	Name      string `json:"name"`
	Parent    string `json:"parent,omitempty"`
}

// MarshalJSON serializes the registry as a topologically ordered list
// of (dimension, name, parent) entries.
func (r *Registry) MarshalJSON() ([]byte, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var entries []entry
	for d := 0; d < numDimensions; d++ {
		names := make([]string, 0, len(r.parent[d]))
		for n := range r.parent[d] {
			names = append(names, n)
		}
		// Parents must precede children; sort by depth then name for a
		// stable, replayable order.
		depth := func(n string) int {
			k := 0
			for cur := n; ; {
				p, ok := r.parent[d][cur]
				if !ok || p == "" {
					return k
				}
				k++
				cur = p
			}
		}
		sort.Slice(names, func(i, j int) bool {
			di, dj := depth(names[i]), depth(names[j])
			if di != dj {
				return di < dj
			}
			return names[i] < names[j]
		})
		for _, n := range names {
			entries = append(entries, entry{Dimension: d, Name: n, Parent: r.parent[d][n]})
		}
	}
	return json.Marshal(entries)
}

// UnmarshalJSON replaces the registry contents with the serialized
// entries.
func (r *Registry) UnmarshalJSON(data []byte) error {
	var entries []entry
	if err := json.Unmarshal(data, &entries); err != nil {
		return err
	}
	fresh := NewRegistry()
	for _, e := range entries {
		if err := fresh.Register(Dimension(e.Dimension), e.Name, e.Parent); err != nil {
			return err
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.parent = fresh.parent
	return nil
}

// Clone returns an independent copy of the registry.
func (r *Registry) Clone() *Registry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c := NewRegistry()
	for d := 0; d < numDimensions; d++ {
		for n, p := range r.parent[d] {
			c.parent[d][n] = p
		}
	}
	return c
}

// Each calls fn for every entry, parents before children: dimension by
// dimension, shallower entries first, then by name. fn runs without r's
// lock held, so it may register into r.
func (r *Registry) Each(fn func(d Dimension, name, parent string)) {
	r.mu.RLock()
	type pair struct {
		name, parent string
		depth        int
	}
	var byDim [numDimensions][]pair
	for d := 0; d < numDimensions; d++ {
		depth := func(n string) int {
			k := 0
			for cur := n; ; {
				p, ok := r.parent[d][cur]
				if !ok || p == "" {
					return k
				}
				k++
				cur = p
			}
		}
		for n, p := range r.parent[d] {
			byDim[d] = append(byDim[d], pair{n, p, depth(n)})
		}
	}
	r.mu.RUnlock()

	for d := 0; d < numDimensions; d++ {
		pairs := byDim[d]
		sort.Slice(pairs, func(i, j int) bool {
			if pairs[i].depth != pairs[j].depth {
				return pairs[i].depth < pairs[j].depth
			}
			return pairs[i].name < pairs[j].name
		})
		for _, pr := range pairs {
			fn(Dimension(d), pr.name, pr.parent)
		}
	}
}

// Merge registers every entry of other into r, in Each's order, so
// parents always precede children. Conflicting parents are reported as
// an error; all non-conflicting entries still apply.
func (r *Registry) Merge(other *Registry) error {
	var firstErr error
	other.Each(func(d Dimension, name, parent string) {
		if err := r.Register(d, name, parent); err != nil && firstErr == nil {
			firstErr = err
		}
	})
	return firstErr
}

func checkName(name string) error {
	if name == "" {
		return fmt.Errorf("dtype: empty type name")
	}
	if strings.ContainsAny(name, ";*\n\t ") {
		return fmt.Errorf("dtype: type name %q contains reserved characters", name)
	}
	return nil
}
