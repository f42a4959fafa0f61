package catalog

import (
	"strconv"

	"chimera/internal/dtype"
	"chimera/internal/schema"
)

// View is a consistent read-only snapshot of the catalog. It holds the
// catalog's read lock until Close, so no mutation applies while it is
// open.
//
// A View reads the catalog's one copy of state, so it sees a mutation
// as soon as the mutation is applied, while its fsync may still be in
// flight — as the locked point reads (Dataset, Materialized, ...) and
// ChangesSince do. Every acknowledged mutation is in the next View.
//
// Rules: a View is not safe for use after Close; maps and slices
// returned by View methods are the catalog's own storage — read-only,
// and valid only until Close.
type View struct{ c *Catalog }

// View opens a snapshot. Callers must Close it, and until then must not
// take the catalog lock (call a locked Catalog method such as Dataset,
// Materialized or Transformation), mutate the catalog, or open a second
// View. A writer waiting for this View blocks every new read lock —
// Go's RWMutex admits no reader past a waiting writer — so any of these
// deadlocks once a writer arrives. Read through the View instead.
func (c *Catalog) View() *View {
	c.mu.RLock()
	return &View{c: c}
}

// Close releases the snapshot's read lock.
func (v *View) Close() { v.c.mu.RUnlock() }

// EpochKey renders the snapshot's identity — the journal cursor
// (instance, seq) — as "instance.seq". Two views with equal keys
// observed identical state: every mutation, type definitions included,
// draws the next sequence.
func (v *View) EpochKey() string {
	return strconv.FormatUint(v.c.jinstance, 10) + "." + strconv.FormatUint(v.c.jseq.Load(), 10)
}

// memoSlot is the value View.Memo holds, tagged with the sequence it
// was built for.
type memoSlot struct {
	seq uint64
	val any
}

// Memo returns the catalog's memoized value for the snapshot's state,
// installing fresh() in its place when the slot was built for another
// sequence (or never). The sequence advances only under the write lock,
// so while the View is open the value belongs to exactly the state the
// View reads, and the first Memo after a mutation drops the old one.
// The catalog never looks inside; the query result cache is its user.
func (v *View) Memo(fresh func() any) any {
	seq := v.c.jseq.Load()
	for {
		old := v.c.memo.Load()
		if old != nil && old.seq == seq {
			return old.val
		}
		m := &memoSlot{seq: seq, val: fresh()}
		if v.c.memo.CompareAndSwap(old, m) {
			return m.val
		}
	}
}

// Types returns the type registry. The registry has its own lock and
// outlives the view.
func (v *View) Types() *dtype.Registry { return v.c.types }

// --- object access -----------------------------------------------------

// Dataset looks up a dataset by name.
func (v *View) Dataset(name string) (schema.Dataset, bool) {
	ds, ok := v.c.datasets[name]
	return ds, ok
}

// Transformation looks up a transformation by exact canonical ref (no
// versionless resolution).
func (v *View) Transformation(ref string) (schema.Transformation, bool) {
	tr, ok := v.c.transformations[ref]
	return tr, ok
}

// Derivation looks up a derivation by ID.
func (v *View) Derivation(id string) (schema.Derivation, bool) {
	dv, ok := v.c.derivations[id]
	return dv, ok
}

// RangeDatasets calls fn for every dataset, in map (unspecified) order,
// until fn returns false.
func (v *View) RangeDatasets(fn func(schema.Dataset) bool) {
	for _, ds := range v.c.datasets {
		if !fn(ds) {
			return
		}
	}
}

// RangeDatasetNames calls fn for every dataset name that starts with
// prefix, in ascending order, until fn returns false; the empty prefix
// ranges every name. It walks the ordered name index, so it costs the
// names it yields, not the catalog, and unlike RangeDatasets it copies
// no record: a caller that can decide on the name alone pays Dataset
// only for the names it accepts.
func (v *View) RangeDatasetNames(prefix string, fn func(name string) bool) {
	v.c.idx.dsNames.rangePrefix(prefix, fn)
}

// RangeTransformationRefs calls fn for every canonical transformation
// ref that starts with prefix, in ascending order, until fn returns
// false.
func (v *View) RangeTransformationRefs(prefix string, fn func(ref string) bool) {
	v.c.idx.trRefs.rangePrefix(prefix, fn)
}

// RangeTransformations calls fn for every transformation, in map order,
// until fn returns false.
func (v *View) RangeTransformations(fn func(schema.Transformation) bool) {
	for _, tr := range v.c.transformations {
		if !fn(tr) {
			return
		}
	}
}

// RangeDerivations calls fn for every derivation, in map order, until
// fn returns false.
func (v *View) RangeDerivations(fn func(schema.Derivation) bool) {
	for _, dv := range v.c.derivations {
		if !fn(dv) {
			return
		}
	}
}

// --- per-object predicates --------------------------------------------

// Materialized reports whether the dataset has a current-epoch replica
// (O(1) from the flag set).
func (v *View) Materialized(dataset string) bool {
	return v.c.idx.materialized.Has(dataset)
}

// HasInvocations reports whether the derivation has recorded at least
// one invocation, without copying them.
func (v *View) HasInvocations(id string) bool {
	return v.c.idx.executed.Has(id)
}

// InvocationCount returns the number of recorded invocations of a
// derivation.
func (v *View) InvocationCount(id string) int {
	return len(v.c.invocationsByDV[id])
}

// Consumes reports whether the derivation reads the dataset.
func (v *View) Consumes(id, dataset string) bool {
	for _, in := range v.c.inputsOf[id] {
		if in == dataset {
			return true
		}
	}
	return false
}

// Produces reports whether the derivation produces the dataset.
func (v *View) Produces(id, dataset string) bool {
	return v.c.producerOf[dataset] == id
}

// Ancestors computes the upward provenance closure of a dataset within
// the snapshot. Same contract as Catalog.Ancestors.
func (v *View) Ancestors(dataset string) (Closure, error) {
	return v.ancestors(dataset)
}

// Descendants computes the downward provenance closure of a dataset
// within the snapshot. Same contract as Catalog.Descendants.
func (v *View) Descendants(dataset string) (Closure, error) {
	return v.descendants(dataset)
}

// --- index access (candidate sets for the query planner) ---------------

// IndexParts is a candidate set held as the snapshot's own index sets:
// one part, or one per conforming exact type for DatasetsByType. The
// parts are never merged or copied, so obtaining a set costs nothing
// per member. Parts are disjoint: every object is indexed under one key
// per index. The zero value is the empty set. Like every View result, an
// IndexParts is read-only and valid until the View is closed.
type IndexParts struct{ parts []IndexSet }

// SetOf builds a one-part set from explicit identifiers, for candidate
// sets the planner derives from something other than an index.
func SetOf(ids ...string) IndexParts {
	if len(ids) == 0 {
		return IndexParts{}
	}
	set := make(IndexSet, len(ids))
	for _, id := range ids {
		set[id] = struct{}{}
	}
	return IndexParts{parts: []IndexSet{set}}
}

// Len reports the number of members.
func (p IndexParts) Len() int {
	n := 0
	for _, part := range p.parts {
		n += len(part)
	}
	return n
}

// Has reports membership.
func (p IndexParts) Has(id string) bool {
	for _, part := range p.parts {
		if part.Has(id) {
			return true
		}
	}
	return false
}

// Each calls fn for every member, in unspecified order.
func (p IndexParts) Each(fn func(id string)) {
	for _, part := range p.parts {
		for id := range part {
			fn(id)
		}
	}
}

// partsOf wraps one index set, omitting it when empty.
func partsOf(set IndexSet) IndexParts {
	if len(set) == 0 {
		return IndexParts{}
	}
	return IndexParts{parts: []IndexSet{set}}
}

// DatasetsByAttr returns the datasets carrying attribute key=value.
func (v *View) DatasetsByAttr(key, value string) IndexParts {
	return partsOf(v.c.idx.dsAttr[key][value])
}

// TransformationsByAttr returns the transformations carrying key=value.
func (v *View) TransformationsByAttr(key, value string) IndexParts {
	return partsOf(v.c.idx.trAttr[key][value])
}

// DerivationsByAttr returns the derivations carrying key=value.
func (v *View) DerivationsByAttr(key, value string) IndexParts {
	return partsOf(v.c.idx.dvAttr[key][value])
}

// DatasetsByType returns the datasets whose exact declared type
// conforms to t (subtype closure via the live registry): one part per
// conforming exact type.
func (v *View) DatasetsByType(t dtype.Type) IndexParts {
	var parts []IndexSet
	for exact, set := range v.c.idx.dsByType {
		if v.c.types.Conforms(exact, t) {
			parts = append(parts, set)
		}
	}
	return IndexParts{parts: parts}
}

// DerivedDatasets returns the datasets with a producing derivation.
func (v *View) DerivedDatasets() IndexParts {
	return partsOf(v.c.idx.derived)
}

// MaterializedDatasets returns the datasets with a current-epoch
// replica.
func (v *View) MaterializedDatasets() IndexParts {
	return partsOf(v.c.idx.materialized)
}

// ExecutedDerivations returns the derivations with >=1 invocation.
func (v *View) ExecutedDerivations() IndexParts {
	return partsOf(v.c.idx.executed)
}

// DerivationsByTR returns the derivations citing the transformation
// reference: any version of ns::name when ref is versionless, exact
// matches otherwise. A versionless ref reads the base family alone: a
// derivation citing ref verbatim parses to the same ns::name and so is
// already filed under that base (indexDerivation).
func (v *View) DerivationsByTR(ref string) IndexParts {
	ns, name, ver, err := schema.ParseTRRef(ref)
	if err != nil || ver != "" {
		return partsOf(v.c.idx.dvByTR[ref])
	}
	baseRef := schema.FormatTRRef(ns, name, "")
	return partsOf(v.c.idx.dvByTRBase[baseRef])
}

// DerivationsByName returns the derivations whose display name (Name,
// or ID when unnamed) equals name.
func (v *View) DerivationsByName(name string) IndexParts {
	return partsOf(v.c.idx.dvByName[name])
}

// HasTransformation reports whether the exact canonical ref is
// registered.
func (v *View) HasTransformation(ref string) bool {
	_, ok := v.c.transformations[ref]
	return ok
}

// ConsumersOf returns the IDs of derivations reading the dataset (the
// snapshot's own slice — read-only).
func (v *View) ConsumersOf(dataset string) []string {
	return v.c.consumersOf[dataset]
}

// ProducerOf returns the ID of the derivation producing the dataset,
// or "" for primary data.
func (v *View) ProducerOf(dataset string) string {
	return v.c.producerOf[dataset]
}
