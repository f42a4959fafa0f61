package catalog

import (
	"fmt"
	"reflect"
	"slices"

	"chimera/internal/codec"
	"chimera/internal/dtype"
	"chimera/internal/schema"
)

// Secondary indexes for the discovery path. Every index is maintained
// incrementally under the catalog write lock by the put*/drop* helpers
// below, which are the single funnel for all mutation paths — batches
// (batch.go), WAL replay and snapshot load all apply through apply — so
// the indexes can never drift from the primary maps regardless of how
// state arrives. CheckIndexes verifies exactly that by rebuilding from
// scratch and comparing.
//
// The read side is Catalog.View (view.go): queries resolve candidate
// sets from these indexes — shared, never copied — and iterate one
// consistent snapshot instead of copying and sorting the whole catalog
// per query.

// IndexSet is a set of object identifiers (dataset names, canonical
// transformation refs, or derivation IDs, depending on the index).
// Sets handed out by a View are shared, not copied: callers must treat
// them as read-only and must not retain them past View.Close.
type IndexSet map[string]struct{}

// Has reports membership.
func (s IndexSet) Has(id string) bool {
	_, ok := s[id]
	return ok
}

// indexes holds every secondary index. Empty sets are removed from
// their parent maps (and empty value maps from attribute indexes) so a
// populated-then-drained index compares equal to a freshly rebuilt one.
type indexes struct {
	// Attribute equality: key -> value -> members.
	dsAttr map[string]map[string]IndexSet // dataset names
	trAttr map[string]map[string]IndexSet // transformation refs
	dvAttr map[string]map[string]IndexSet // derivation IDs

	// Dataset exact type -> dataset names. Type conformance queries
	// union the sets of every registered exact type that conforms to
	// the queried type (the set of distinct exact types is small, so
	// the subtype closure is recomputed per query against the live
	// registry — no cache to invalidate on DefineType).
	dsByType map[dtype.Type]IndexSet

	// Flag sets.
	derived      IndexSet // dataset names with a producing derivation
	materialized IndexSet // dataset names with >=1 replica at the current epoch
	executed     IndexSet // derivation IDs with >=1 invocation

	// Transformation-ref -> derivation IDs: by the exact TR string the
	// derivation cites, and by the versionless "ns::name" base so
	// `tr = ns::name` finds derivations citing any version.
	dvByTR     map[string]IndexSet
	dvByTRBase map[string]IndexSet

	// Display name -> derivation IDs (a derivation's query name is its
	// Name when set, otherwise its ID; names need not be unique).
	dvByName map[string]IndexSet

	// Dataset names and transformation refs in order (names.go), for
	// prefix ranges and ordered scans.
	dsNames, trRefs nameIndex
}

func newIndexes() indexes {
	return indexes{
		dsAttr:       make(map[string]map[string]IndexSet),
		trAttr:       make(map[string]map[string]IndexSet),
		dvAttr:       make(map[string]map[string]IndexSet),
		dsByType:     make(map[dtype.Type]IndexSet),
		derived:      make(IndexSet),
		materialized: make(IndexSet),
		executed:     make(IndexSet),
		dvByTR:       make(map[string]IndexSet),
		dvByTRBase:   make(map[string]IndexSet),
		dvByName:     make(map[string]IndexSet),
	}
}

// --- low-level set maintenance ----------------------------------------

func setAdd(m map[string]IndexSet, key, id string) {
	s, ok := m[key]
	if !ok {
		s = make(IndexSet)
		m[key] = s
	}
	s[id] = struct{}{}
}

func setRemove(m map[string]IndexSet, key, id string) {
	if s, ok := m[key]; ok {
		delete(s, id)
		if len(s) == 0 {
			delete(m, key)
		}
	}
}

func attrIndexAdd(idx map[string]map[string]IndexSet, attrs schema.Attributes, id string) {
	for k, v := range attrs {
		byVal, ok := idx[k]
		if !ok {
			byVal = make(map[string]IndexSet)
			idx[k] = byVal
		}
		setAdd(byVal, v, id)
	}
}

func attrIndexRemove(idx map[string]map[string]IndexSet, attrs schema.Attributes, id string) {
	for k, v := range attrs {
		if byVal, ok := idx[k]; ok {
			setRemove(byVal, v, id)
			if len(byVal) == 0 {
				delete(idx, k)
			}
		}
	}
}

// --- mutation funnel ---------------------------------------------------
//
// Each put*/drop* applies one edit to the maps and indexes and journals
// it, which advances the mutation sequence (Catalog.jseq). Callers hold
// the write lock (or own the catalog exclusively, as during Open).

// putDataset installs or replaces a dataset record and all its index
// entries. Its CreatedBy is the producer link indexDerivation keeps;
// whatever the record carried is ignored.
func (c *Catalog) putDataset(ds schema.Dataset) {
	ds.CreatedBy = c.producerOf[ds.Name]
	if old, ok := c.datasets[ds.Name]; ok {
		attrIndexRemove(c.idx.dsAttr, old.Attrs, old.Name)
		if old.Type != ds.Type {
			setRemoveTyped(c.idx.dsByType, old.Type, old.Name)
		}
	} else {
		c.idx.dsNames.insert(ds.Name)
	}
	c.datasets[ds.Name] = ds
	attrIndexAdd(c.idx.dsAttr, ds.Attrs, ds.Name)
	setAddTyped(c.idx.dsByType, ds.Type, ds.Name)
	// An epoch change can flip materialization either way.
	c.reindexMaterialized(ds.Name)
	c.noteJournal(codec.RecDataset, ds.Name)
}

func setAddTyped(m map[dtype.Type]IndexSet, t dtype.Type, id string) {
	s, ok := m[t]
	if !ok {
		s = make(IndexSet)
		m[t] = s
	}
	s[id] = struct{}{}
}

func setRemoveTyped(m map[dtype.Type]IndexSet, t dtype.Type, id string) {
	if s, ok := m[t]; ok {
		delete(s, id)
		if len(s) == 0 {
			delete(m, t)
		}
	}
}

// putTransformation installs a transformation, maintaining the version
// and attribute indexes.
func (c *Catalog) putTransformation(tr schema.Transformation) {
	ref := tr.Ref()
	if old, ok := c.transformations[ref]; ok {
		attrIndexRemove(c.idx.trAttr, old.Attrs, ref)
	} else {
		base := schema.FormatTRRef(tr.Namespace, tr.Name, "")
		c.versionsOf[base] = append(c.versionsOf[base], tr.Version)
		c.idx.trRefs.insert(ref)
	}
	c.transformations[ref] = tr
	attrIndexAdd(c.idx.trAttr, tr.Attrs, ref)
	c.noteJournal(codec.RecTransformation, ref)
}

// indexDerivation installs a derivation with its provenance and
// secondary indexes. No-op if the ID exists. It is the one writer of
// the producer link: each output's producerOf entry, its CreatedBy and
// its derived flag. The outputs' own records are not journaled again —
// a delta carries the derivation, which links them on the receiving
// side the same way.
func (c *Catalog) indexDerivation(dv schema.Derivation, tr schema.Transformation) {
	if _, ok := c.derivations[dv.ID]; ok {
		return
	}
	inputs := dv.Inputs(tr)
	outputs := dv.Outputs(tr)
	c.derivations[dv.ID] = dv
	c.inputsOf[dv.ID] = inputs
	c.outputsOf[dv.ID] = outputs
	for _, in := range inputs {
		c.consumersOf[in] = append(c.consumersOf[in], dv.ID)
	}
	for _, out := range outputs {
		c.producerOf[out] = dv.ID
		c.idx.derived[out] = struct{}{}
		if ds, ok := c.datasets[out]; ok {
			ds.CreatedBy = dv.ID
			c.datasets[out] = ds
		}
	}
	attrIndexAdd(c.idx.dvAttr, dv.Attrs, dv.ID)
	setAdd(c.idx.dvByTR, dv.TR, dv.ID)
	if ns, name, _, err := schema.ParseTRRef(dv.TR); err == nil {
		setAdd(c.idx.dvByTRBase, schema.FormatTRRef(ns, name, ""), dv.ID)
	}
	name := dv.Name
	if name == "" {
		name = dv.ID
	}
	setAdd(c.idx.dvByName, name, dv.ID)
	c.noteJournal(codec.RecDerivation, dv.ID)
}

// putInvocation installs an invocation. No-op if the ID exists.
func (c *Catalog) putInvocation(iv schema.Invocation) {
	if _, ok := c.invocations[iv.ID]; ok {
		return
	}
	c.invocations[iv.ID] = iv
	c.invocationsByDV[iv.Derivation] = append(c.invocationsByDV[iv.Derivation], iv.ID)
	c.idx.executed[iv.Derivation] = struct{}{}
	c.noteJournal(codec.RecInvocation, iv.ID)
}

// putReplica installs a new replica or updates an existing one in place
// (epoch re-stamp), keeping the materialized set current. A replica
// moving to another dataset must be dropped first (batch.check).
func (c *Catalog) putReplica(r schema.Replica) {
	if _, ok := c.replicas[r.ID]; !ok {
		c.replicasByDataset[r.Dataset] = append(c.replicasByDataset[r.Dataset], r.ID)
	}
	c.replicas[r.ID] = r
	c.reindexMaterialized(r.Dataset)
	c.noteJournal(codec.RecReplica, r.ID)
}

// dropReplica removes a replica record and reports whether it existed.
func (c *Catalog) dropReplica(id string) bool {
	r, ok := c.replicas[id]
	if !ok {
		return false
	}
	delete(c.replicas, id)
	ids := c.replicasByDataset[r.Dataset]
	for i, x := range ids {
		if x == id {
			ids = append(ids[:i:i], ids[i+1:]...)
			break
		}
	}
	if len(ids) == 0 {
		delete(c.replicasByDataset, r.Dataset)
	} else {
		c.replicasByDataset[r.Dataset] = ids
	}
	c.reindexMaterialized(r.Dataset)
	c.noteJournal(codec.RecRemoveReplica, id)
	return true
}

// reindexMaterialized recomputes one dataset's membership in the
// materialized set from its replicas and current epoch.
func (c *Catalog) reindexMaterialized(name string) {
	ds, ok := c.datasets[name]
	if !ok {
		delete(c.idx.materialized, name)
		return
	}
	for _, id := range c.replicasByDataset[name] {
		if c.replicas[id].Epoch == ds.Epoch {
			c.idx.materialized[name] = struct{}{}
			return
		}
	}
	delete(c.idx.materialized, name)
}

// --- verification ------------------------------------------------------

// CheckIndexes rebuilds every secondary index from the primary maps and
// compares with the incrementally maintained state, checks that the
// ordered name indexes hold exactly the sorted map keys, and checks that
// every dataset's CreatedBy is its producer link (producerOf). It
// returns nil when they agree; tests call it after WAL replay, imports,
// and mutation storms to prove the funnel covers every path.
func (c *Catalog) CheckIndexes() error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for name, ds := range c.datasets {
		if p := c.producerOf[name]; ds.CreatedBy != p {
			return fmt.Errorf("catalog: dataset %q has createdBy %q, but its producer is %q", name, ds.CreatedBy, p)
		}
	}
	for name, id := range c.producerOf {
		if _, ok := c.datasets[name]; !ok {
			return fmt.Errorf("catalog: derivation %s outputs %q, which is not a dataset", id, name)
		}
	}
	for _, f := range []struct {
		name string
		got  []string
		want []string
	}{
		{"dsNames", c.idx.dsNames.keys(), sortedKeys(c.datasets)},
		{"trRefs", c.idx.trRefs.keys(), sortedKeys(c.transformations)},
	} {
		if !slices.Equal(f.got, f.want) {
			return fmt.Errorf("catalog: ordered index %q diverged from the sorted keys:\n got: %q\nwant: %q", f.name, f.got, f.want)
		}
	}
	want := c.rebuildIndexesLocked()
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"dsAttr", c.idx.dsAttr, want.dsAttr},
		{"trAttr", c.idx.trAttr, want.trAttr},
		{"dvAttr", c.idx.dvAttr, want.dvAttr},
		{"dsByType", c.idx.dsByType, want.dsByType},
		{"derived", c.idx.derived, want.derived},
		{"materialized", c.idx.materialized, want.materialized},
		{"executed", c.idx.executed, want.executed},
		{"dvByTR", c.idx.dvByTR, want.dvByTR},
		{"dvByTRBase", c.idx.dvByTRBase, want.dvByTRBase},
		{"dvByName", c.idx.dvByName, want.dvByName},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			return fmt.Errorf("catalog: index %q diverged from rebuild:\n got: %v\nwant: %v", f.name, f.got, f.want)
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// rebuildIndexesLocked computes the secondary indexes from scratch.
func (st *catalogState) rebuildIndexesLocked() indexes {
	idx := newIndexes()
	for name, ds := range st.datasets {
		attrIndexAdd(idx.dsAttr, ds.Attrs, name)
		setAddTyped(idx.dsByType, ds.Type, name)
		if ds.CreatedBy != "" {
			idx.derived[name] = struct{}{}
		}
		for _, id := range st.replicasByDataset[name] {
			if st.replicas[id].Epoch == ds.Epoch {
				idx.materialized[name] = struct{}{}
				break
			}
		}
	}
	for ref, tr := range st.transformations {
		attrIndexAdd(idx.trAttr, tr.Attrs, ref)
	}
	for id, dv := range st.derivations {
		attrIndexAdd(idx.dvAttr, dv.Attrs, id)
		setAdd(idx.dvByTR, dv.TR, id)
		if ns, name, _, err := schema.ParseTRRef(dv.TR); err == nil {
			setAdd(idx.dvByTRBase, schema.FormatTRRef(ns, name, ""), id)
		}
		name := dv.Name
		if name == "" {
			name = id
		}
		setAdd(idx.dvByName, name, id)
	}
	for _, iv := range st.invocations {
		idx.executed[iv.Derivation] = struct{}{}
	}
	return idx
}

// IndexStats reports the cardinality of every secondary index: the
// number of distinct keys per keyed index and members per flag set. It
// feeds the /debug/vdc introspection endpoint, where a surprising
// cardinality (an attribute key exploding, a flag set empty) is often
// the first visible symptom of a misbehaving ingest.
func (c *Catalog) IndexStats() map[string]int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	attrKeys := func(m map[string]map[string]IndexSet) int {
		n := 0
		for _, vals := range m {
			n += len(vals)
		}
		return n
	}
	return map[string]int{
		"dataset_attr_keys":        len(c.idx.dsAttr),
		"dataset_attr_values":      attrKeys(c.idx.dsAttr),
		"transformation_attr_keys": len(c.idx.trAttr),
		"derivation_attr_keys":     len(c.idx.dvAttr),
		"dataset_types":            len(c.idx.dsByType),
		"derived":                  len(c.idx.derived),
		"materialized":             len(c.idx.materialized),
		"executed":                 len(c.idx.executed),
		"derivations_by_tr":        len(c.idx.dvByTR),
		"derivations_by_tr_base":   len(c.idx.dvByTRBase),
		"derivations_by_name":      len(c.idx.dvByName),
	}
}
