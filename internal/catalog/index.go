package catalog

import (
	"fmt"
	"reflect"

	"chimera/internal/dtype"
	"chimera/internal/schema"
)

// Secondary indexes for the discovery path. Every index is maintained
// incrementally under its shard's write lock by the put*/drop* helpers
// below, which are the single funnel for all mutation paths — public
// mutators, WAL replay (apply), and snapshot load (applyExport) — so
// the indexes can never drift from the primary maps regardless of how
// state arrives. CheckIndexes verifies exactly that by rebuilding from
// scratch and comparing.
//
// Each shard owns the index entries for the objects homed on it, and
// every index is keyed by its object's home name (dataset indexes by
// dataset name, derivation indexes by derivation ID), so maintaining
// an entry never needs a lock the mutation does not already hold. The
// read side is Catalog.View (view.go): queries resolve candidate sets
// from these indexes — each shard's set as one part of an IndexParts,
// never merged — and iterate one consistent snapshot instead of copying
// and sorting the whole catalog per query.

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
	derived      IndexSet // dataset names with CreatedBy linkage
	materialized IndexSet // dataset names with >=1 replica at the current epoch
	executed     IndexSet // derivation IDs with >=1 invocation

	// Transformation-ref -> derivation IDs: by the exact TR string the
	// derivation cites, and by the versionless "ns::name" base so
	// `tr = ns::name` finds derivations citing any version. Keyed by
	// the derivation (the TR may be homed elsewhere).
	dvByTR     map[string]IndexSet
	dvByTRBase map[string]IndexSet

	// Display name -> derivation IDs (a derivation's query name is its
	// Name when set, otherwise its ID; names need not be unique).
	dvByName map[string]IndexSet
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
// Each put*/drop* is split in two: a Catalog-level wrapper that routes
// to the home shard, applies the edit, advances the shard's mutation
// version (cshard.ver) and journals; and a shardState-level method
// holding the actual map/index edits.

// putDataset installs or replaces a dataset record and all its index
// entries on the dataset's home shard. Callers hold that shard's write
// lock.
func (c *Catalog) putDataset(ds schema.Dataset) {
	s := c.shardOf(ds.Name)
	s.putDataset(ds)
	s.ver++
	s.noteJournal(c, jDataset, ds.Name, false)
}

func (st *shardState) putDataset(ds schema.Dataset) {
	if old, ok := st.datasets[ds.Name]; ok {
		attrIndexRemove(st.idx.dsAttr, old.Attrs, old.Name)
		if old.Type != ds.Type {
			setRemoveTyped(st.idx.dsByType, old.Type, old.Name)
		}
		if old.CreatedBy != "" && ds.CreatedBy == "" {
			delete(st.idx.derived, old.Name)
		}
	}
	st.datasets[ds.Name] = ds
	attrIndexAdd(st.idx.dsAttr, ds.Attrs, ds.Name)
	setAddTyped(st.idx.dsByType, ds.Type, ds.Name)
	if ds.CreatedBy != "" {
		st.idx.derived[ds.Name] = struct{}{}
	}
	// An epoch change can flip materialization either way.
	st.reindexMaterialized(ds.Name)
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

// putTransformation installs a transformation on its base's home
// shard, maintaining the version and attribute indexes. Callers hold
// that shard's write lock.
func (c *Catalog) putTransformation(tr schema.Transformation) {
	ref := tr.Ref()
	s := c.shardOfTR(ref)
	s.putTransformation(tr)
	s.ver++
	s.noteJournal(c, jTransformation, ref, false)
}

func (st *shardState) putTransformation(tr schema.Transformation) {
	ref := tr.Ref()
	if old, ok := st.transformations[ref]; ok {
		attrIndexRemove(st.idx.trAttr, old.Attrs, ref)
	} else {
		base := schema.FormatTRRef(tr.Namespace, tr.Name, "")
		st.versionsOf[base] = append(st.versionsOf[base], tr.Version)
	}
	st.transformations[ref] = tr
	attrIndexAdd(st.idx.trAttr, tr.Attrs, ref)
}

// indexDerivation installs a derivation with its provenance and
// secondary indexes. The record and derivation-keyed indexes land on
// the ID's home shard; each input/output dataset's adjacency entry
// lands on that dataset's shard. Callers hold the write locks of the
// ID's shard and of every input/output dataset's shard. No-op if the
// ID exists.
func (c *Catalog) indexDerivation(dv schema.Derivation, tr schema.Transformation) {
	home := c.shardOf(dv.ID)
	if _, ok := home.derivations[dv.ID]; ok {
		return
	}
	inputs := dv.Inputs(tr)
	outputs := dv.Outputs(tr)
	home.indexDerivationHome(dv, inputs, outputs)
	home.ver++
	// Adjacency entries land on each dataset's own shard and write no
	// journal entry there, which is exactly why the mutation version
	// (cshard.ver) and not the journal cursor keys cache invalidation.
	for _, in := range inputs {
		s := c.shardOf(in)
		s.consumersOf[in] = append(s.consumersOf[in], dv.ID)
		s.ver++
	}
	for _, out := range outputs {
		s := c.shardOf(out)
		s.producerOf[out] = dv.ID
		s.ver++
	}
	home.noteJournal(c, jDerivation, dv.ID, false)
}

// indexDerivationHome installs the derivation record and the
// derivation-keyed indexes on the ID's home shard state.
func (st *shardState) indexDerivationHome(dv schema.Derivation, inputs, outputs []string) {
	st.derivations[dv.ID] = dv
	st.inputsOf[dv.ID] = inputs
	st.outputsOf[dv.ID] = outputs
	attrIndexAdd(st.idx.dvAttr, dv.Attrs, dv.ID)
	setAdd(st.idx.dvByTR, dv.TR, dv.ID)
	if ns, name, _, err := schema.ParseTRRef(dv.TR); err == nil {
		setAdd(st.idx.dvByTRBase, schema.FormatTRRef(ns, name, ""), dv.ID)
	}
	name := dv.Name
	if name == "" {
		name = dv.ID
	}
	setAdd(st.idx.dvByName, name, dv.ID)
}

// putInvocation installs an invocation on its derivation's home shard.
// Callers hold that shard's write lock. No-op if the ID exists.
func (c *Catalog) putInvocation(iv schema.Invocation) {
	s := c.shardOf(iv.Derivation)
	if _, ok := s.invocations[iv.ID]; ok {
		return
	}
	s.invocations[iv.ID] = iv
	s.invocationsByDV[iv.Derivation] = append(s.invocationsByDV[iv.Derivation], iv.ID)
	s.idx.executed[iv.Derivation] = struct{}{}
	s.ver++
	s.noteJournal(c, jInvocation, iv.ID, false)
}

// putReplica installs a new replica or updates an existing one in place
// (epoch re-stamp) on its dataset's home shard, keeping the
// materialized set current. Callers hold that shard's write lock.
func (c *Catalog) putReplica(r schema.Replica) {
	s := c.shardOf(r.Dataset)
	if _, ok := s.replicas[r.ID]; !ok {
		s.replicasByDataset[r.Dataset] = append(s.replicasByDataset[r.Dataset], r.ID)
	}
	s.replicas[r.ID] = r
	s.reindexMaterialized(r.Dataset)
	s.ver++
	s.noteJournal(c, jReplica, r.ID, false)
}

// dropReplica removes a replica record, if present. A bare ID does not
// reveal the home shard, so the lookup probes every shard; callers
// hold every shard's write lock (or own the catalog exclusively, as
// during replay).
func (c *Catalog) dropReplica(id string) (schema.Replica, bool) {
	for _, s := range c.shards {
		r, ok := s.replicas[id]
		if !ok {
			continue
		}
		s.dropReplica(id)
		s.ver++
		s.noteJournal(c, jReplica, id, true)
		return r, true
	}
	return schema.Replica{}, false
}

func (st *shardState) dropReplica(id string) {
	r, ok := st.replicas[id]
	if !ok {
		return
	}
	delete(st.replicas, id)
	ids := st.replicasByDataset[r.Dataset]
	for i, x := range ids {
		if x == id {
			ids = append(ids[:i:i], ids[i+1:]...)
			break
		}
	}
	if len(ids) == 0 {
		delete(st.replicasByDataset, r.Dataset)
	} else {
		st.replicasByDataset[r.Dataset] = ids
	}
	st.reindexMaterialized(r.Dataset)
}

// reindexMaterialized recomputes one dataset's membership in the
// materialized set from its replicas and current epoch. The dataset,
// its replicas, and the flag entry all live on this state's shard.
func (st *shardState) reindexMaterialized(name string) {
	ds, ok := st.datasets[name]
	if !ok {
		delete(st.idx.materialized, name)
		return
	}
	for _, id := range st.replicasByDataset[name] {
		if st.replicas[id].Epoch == ds.Epoch {
			st.idx.materialized[name] = struct{}{}
			return
		}
	}
	delete(st.idx.materialized, name)
}

// --- verification ------------------------------------------------------

// CheckIndexes rebuilds every secondary index from the primary maps and
// compares with the incrementally maintained state, shard by shard. It
// returns nil when they agree; tests call it after WAL replay, imports,
// and mutation storms to prove the funnel covers every path.
func (c *Catalog) CheckIndexes() error {
	c.rlockAll()
	defer c.runlockAll()
	for i, s := range c.shards {
		want := s.rebuildIndexesLocked()
		for _, f := range []struct {
			name      string
			got, want any
		}{
			{"dsAttr", s.idx.dsAttr, want.dsAttr},
			{"trAttr", s.idx.trAttr, want.trAttr},
			{"dvAttr", s.idx.dvAttr, want.dvAttr},
			{"dsByType", s.idx.dsByType, want.dsByType},
			{"derived", s.idx.derived, want.derived},
			{"materialized", s.idx.materialized, want.materialized},
			{"executed", s.idx.executed, want.executed},
			{"dvByTR", s.idx.dvByTR, want.dvByTR},
			{"dvByTRBase", s.idx.dvByTRBase, want.dvByTRBase},
			{"dvByName", s.idx.dvByName, want.dvByName},
		} {
			if !reflect.DeepEqual(f.got, f.want) {
				return fmt.Errorf("catalog: shard %d index %q diverged from rebuild:\n got: %v\nwant: %v", i, f.name, f.got, f.want)
			}
		}
	}
	return nil
}

// rebuildIndexesLocked computes one shard's secondary indexes from
// scratch. Every index entry's source objects are homed on the same
// shard as the entry (invocations live with their derivation, replicas
// with their dataset), so the rebuild is shard-local.
func (st *shardState) rebuildIndexesLocked() indexes {
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
// number of distinct keys per keyed index and members per flag set,
// summed across shards. It feeds the /debug/vdc introspection
// endpoint, where a surprising cardinality (an attribute key
// exploding, a flag set empty) is often the first visible symptom of a
// misbehaving ingest.
func (c *Catalog) IndexStats() map[string]int {
	c.rlockAll()
	defer c.runlockAll()
	attrKeys := func(m map[string]map[string]IndexSet) int {
		n := 0
		for _, vals := range m {
			n += len(vals)
		}
		return n
	}
	out := make(map[string]int, 11)
	for _, s := range c.shards {
		out["dataset_attr_keys"] += len(s.idx.dsAttr)
		out["dataset_attr_values"] += attrKeys(s.idx.dsAttr)
		out["transformation_attr_keys"] += len(s.idx.trAttr)
		out["derivation_attr_keys"] += len(s.idx.dvAttr)
		out["dataset_types"] += len(s.idx.dsByType)
		out["derived"] += len(s.idx.derived)
		out["materialized"] += len(s.idx.materialized)
		out["executed"] += len(s.idx.executed)
		out["derivations_by_tr"] += len(s.idx.dvByTR)
		out["derivations_by_tr_base"] += len(s.idx.dvByTRBase)
		out["derivations_by_name"] += len(s.idx.dvByName)
	}
	return out
}
