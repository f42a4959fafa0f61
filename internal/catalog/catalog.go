// Package catalog implements the Virtual Data Catalog (VDC): the
// service that maintains the objects of the virtual data schema and
// the relationships among them.
//
// The catalog stores the five object classes (datasets, replicas,
// transformations, derivations, invocations) plus the dataset-type
// registry and transformation version-compatibility assertions. On top
// of raw storage it maintains the provenance graph — which derivation
// produces which dataset, which derivations consume it — and supports
// the queries the paper motivates: lineage reports, invalidation sets,
// duplicate-derivation detection, and materialization planning input.
//
// Storage is partitioned into shards (shard.go) so concurrent writers
// on different objects proceed on different cores; New builds the
// single-shard catalog, NewSharded and Options.Shards the partitioned
// one. Durability is per-shard write-ahead logging with snapshot
// compaction; see wal.go.
package catalog

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"chimera/internal/dtype"
	"chimera/internal/schema"
)

// Sentinel errors reported by catalog operations.
var (
	// ErrNotFound reports a missing object.
	ErrNotFound = errors.New("catalog: not found")
	// ErrExists reports an attempt to redefine an object differently.
	ErrExists = errors.New("catalog: already exists")
	// ErrDuplicate reports that an identical derivation (same canonical
	// signature) is already registered; the caller can reuse it.
	ErrDuplicate = errors.New("catalog: duplicate derivation")
	// ErrConflict reports a provenance conflict, e.g. two different
	// derivations claiming to produce the same dataset.
	ErrConflict = errors.New("catalog: provenance conflict")
	// ErrType reports a dataset-type conformance failure.
	ErrType = errors.New("catalog: type mismatch")
	// ErrDurability reports that the write-ahead log failed: the
	// mutation may have applied in memory, but the catalog can no
	// longer guarantee it survives a restart. Servers should surface
	// this as an availability (not a caller) error.
	ErrDurability = errors.New("catalog: durability failure")
)

// errRetryShards is the internal sentinel an optimistic multi-shard
// mutation returns when the shard set it locked turns out not to cover
// the shards it needs (the state it peeked at before locking changed);
// the caller recomputes the set and retries. Never escapes the package.
var errRetryShards = errors.New("catalog: shard set stale")

// Catalog is an in-memory VDC with optional write-ahead durability.
// It is safe for concurrent use. State is partitioned across shards
// (shard.go); the type registry is shared (it has its own lock).
type Catalog struct {
	types  *dtype.Registry
	shards []*cshard

	// Change-journal identity (journal.go): jseq is the catalog-wide
	// mutation sequence, advanced atomically by whichever shard records
	// a mutation; jinstance invalidates sequences across instances.
	jseq      atomic.Uint64
	jinstance uint64

	dir        string // catalog directory; "" for in-memory catalogs
	snapFormat string // pinned snapshot codec name; "" for in-memory catalogs
}

// New returns an empty in-memory catalog with a single shard, using
// the given type registry (nil for a fresh empty registry).
func New(types *dtype.Registry) *Catalog { return NewSharded(types, 1) }

// NewSharded returns an empty in-memory catalog partitioned into
// shards (clamped to [1, MaxShards]). More shards let more concurrent
// writers proceed without contending; Shards()==1 behaves exactly like
// the unsharded catalog and is the equivalence oracle for the rest.
func NewSharded(types *dtype.Registry, shards int) *Catalog {
	if types == nil {
		types = dtype.NewRegistry()
	}
	n := normalizeShards(shards)
	c := &Catalog{types: types, jinstance: newJournalInstance(), shards: make([]*cshard, n)}
	for i := range c.shards {
		c.shards[i] = newCShard(i, DefaultJournalWindow)
	}
	return c
}

// Types returns the catalog's dataset-type registry.
func (c *Catalog) Types() *dtype.Registry { return c.types }

// mutate runs fn with every shard in set write-locked, then — if fn
// enqueued WAL records on the shards' group committers — blocks
// *outside* the locks until the batches holding them are durable. A
// mutation therefore never returns success before its records are
// written (and fsynced when Options.Sync is set), yet the fsync happens
// off-lock so concurrent writers share it instead of serializing on
// it. In-memory catalogs return as soon as fn does.
func (c *Catalog) mutate(set shardSet, fn func() error) error {
	wait, err := c.mutateAsync(set, fn)
	if err != nil {
		return err
	}
	if wait != nil {
		return wait()
	}
	return nil
}

// walWait is one shard's durability obligation from a mutation.
type walWait struct {
	com *committer
	seq uint64
}

// mutateAsync runs fn with the shard set write-locked and, instead of
// blocking for durability, returns a wait function the caller invokes
// (off any lock, possibly from another goroutine) to block until every
// batch holding fn's WAL records is durable. A nil wait means the
// mutation needs no waiting (in-memory catalog, or nothing logged).
// This is the primitive behind the executor's off-lock recording pipeline:
// applies stay ordered under the shard locks while many durability
// waits stay in flight at once, which is what lets the group
// committers batch them.
func (c *Catalog) mutateAsync(set shardSet, fn func() error) (wait func() error, err error) {
	c.lockSet(set)
	err = fn()
	var w0 walWait
	var more []walWait
	for i, s := range c.shards {
		// logOp set pendingSeq under this same lock hold, so the WAL it
		// enqueued on is still attached.
		if !set.has(i) || s.pendingSeq == 0 {
			continue
		}
		if w0.com == nil {
			w0 = walWait{s.wal.com, s.pendingSeq}
		} else {
			more = append(more, walWait{s.wal.com, s.pendingSeq})
		}
		s.pendingSeq = 0
	}
	c.unlockSet(set)
	if err != nil {
		// The operation failed after possibly enqueueing records (the
		// seed's partial-log semantics); its error wins either way.
		return nil, err
	}
	if w0.com == nil {
		return nil, nil
	}
	return func() error {
		first := w0.com.wait(w0.seq)
		for _, w := range more {
			if e := w.com.wait(w.seq); e != nil && first == nil {
				first = e
			}
		}
		return first
	}, nil
}

// DefineType registers a dataset type in the catalog's registry and
// logs it for durability. Registry state and its journal/WAL records
// live on shard 0.
func (c *Catalog) DefineType(d dtype.Dimension, name, parent string) (err error) {
	opDefineType.Inc()
	defer func() { err = countErr("define_type", err) }()
	return c.mutate(shardSet(0).with(0), func() error {
		if err := c.types.Register(d, name, parent); err != nil {
			return err
		}
		// The registry is shared (own lock), not part of shard state, but
		// a definition changes type-conformance answers — advance shard
		// 0's mutation version so every cached query result keyed on the
		// old vector invalidates.
		c.shards[0].ver++
		c.shards[0].noteJournal(c, jTypes, "", false)
		return c.shards[0].logOp(opType, typeRecord{Dim: int(d), Name: name, Parent: parent})
	})
}

// --- Datasets ---------------------------------------------------------

// AddDataset registers a dataset. Re-adding a byte-identical dataset is
// a no-op; redefining an existing name differently is ErrExists.
func (c *Catalog) AddDataset(ds schema.Dataset) (err error) {
	opAddDataset.Inc()
	defer func() { err = countErr("add_dataset", err) }()
	if err := ds.Validate(); err != nil {
		return err
	}
	set := c.keySet(ds.Name)
	if ds.CreatedBy != "" {
		// The cited producer derivation lives on its own shard; lock it
		// too so the existence check is stable.
		set = set.with(c.shardIndex(ds.CreatedBy))
	}
	return c.mutate(set, func() error {
		s := c.shardOf(ds.Name)
		if err := c.types.CheckType(ds.Type); err != nil {
			return fmt.Errorf("%w: dataset %q: %v", ErrType, ds.Name, err)
		}
		if old, ok := s.datasets[ds.Name]; ok {
			if equalJSON(old, ds) {
				return nil
			}
			return fmt.Errorf("%w: dataset %q", ErrExists, ds.Name)
		}
		if ds.CreatedBy != "" {
			if _, ok := c.shardOf(ds.CreatedBy).derivations[ds.CreatedBy]; !ok {
				return fmt.Errorf("%w: dataset %q cites unknown derivation %q", ErrNotFound, ds.Name, ds.CreatedBy)
			}
		}
		c.putDataset(ds)
		return s.logOp(opDataset, ds)
	})
}

// UpdateDataset replaces an existing dataset record (e.g. to attach a
// descriptor once the data is materialized, or bump the epoch).
func (c *Catalog) UpdateDataset(ds schema.Dataset) (err error) {
	opUpdate.Inc()
	defer func() { err = countErr("update_dataset", err) }()
	if err := ds.Validate(); err != nil {
		return err
	}
	return c.mutate(c.keySet(ds.Name), func() error {
		s := c.shardOf(ds.Name)
		old, ok := s.datasets[ds.Name]
		if !ok {
			return fmt.Errorf("%w: dataset %q", ErrNotFound, ds.Name)
		}
		if ds.Epoch < old.Epoch {
			return fmt.Errorf("%w: dataset %q epoch moved backwards (%d -> %d)", ErrConflict, ds.Name, old.Epoch, ds.Epoch)
		}
		c.putDataset(ds)
		return s.logOp(opDataset, ds)
	})
}

// BumpEpoch records an in-place update of a dataset (§8's "update"
// operation): the epoch increments, making all current-epoch state
// stale. When restampReplicas is true the dataset's existing replicas
// are re-stamped to the new epoch — the caller asserts the physical
// copies were corrected in place; when false they become stale and the
// dataset must be re-materialized. A dataset's replicas are homed on
// its shard, so the whole operation is single-shard.
func (c *Catalog) BumpEpoch(name string, restampReplicas bool) (_ int, err error) {
	opBumpEpoch.Inc()
	defer func() { err = countErr("bump_epoch", err) }()
	epoch := 0
	err = c.mutate(c.keySet(name), func() error {
		s := c.shardOf(name)
		ds, ok := s.datasets[name]
		if !ok {
			return fmt.Errorf("%w: dataset %q", ErrNotFound, name)
		}
		ds.Epoch++
		c.putDataset(ds)
		if err := s.logOp(opDataset, ds); err != nil {
			return err
		}
		if restampReplicas {
			for _, id := range s.replicasByDataset[name] {
				r := s.replicas[id]
				r.Epoch = ds.Epoch
				c.putReplica(r)
				if err := s.logOp(opReplica, r); err != nil {
					return err
				}
			}
		}
		epoch = ds.Epoch
		return nil
	})
	if err != nil {
		return 0, err
	}
	return epoch, nil
}

// Dataset returns the dataset with the given logical name.
func (c *Catalog) Dataset(name string) (schema.Dataset, error) {
	s := c.shardOf(name)
	s.mu.RLock()
	defer s.mu.RUnlock()
	ds, ok := s.datasets[name]
	if !ok {
		return schema.Dataset{}, fmt.Errorf("%w: dataset %q", ErrNotFound, name)
	}
	return ds, nil
}

// Datasets returns all datasets, sorted by name.
func (c *Catalog) Datasets() []schema.Dataset {
	c.rlockAll()
	defer c.runlockAll()
	var out []schema.Dataset
	for _, st := range c.shards {
		for _, ds := range st.datasets {
			out = append(out, ds)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// --- Transformations --------------------------------------------------

// AddTransformation registers a transformation under its canonical
// reference. Identical re-registration is a no-op. All versions of one
// ns::name are homed on one shard (see trHome), so registration and
// versionless resolution are single-shard.
func (c *Catalog) AddTransformation(tr schema.Transformation) (err error) {
	opAddTR.Inc()
	defer func() { err = countErr("add_transformation", err) }()
	if err := tr.Validate(); err != nil {
		return err
	}
	ref := tr.Ref()
	return c.mutate(c.keySet(trHome(ref)), func() error {
		s := c.shardOfTR(ref)
		for _, f := range tr.Args {
			for _, t := range f.Types {
				if err := c.types.CheckType(t); err != nil {
					return fmt.Errorf("%w: transformation %q formal %q: %v", ErrType, ref, f.Name, err)
				}
			}
		}
		if old, ok := s.transformations[ref]; ok {
			if equalJSON(old, tr) {
				return nil
			}
			return fmt.Errorf("%w: transformation %q", ErrExists, ref)
		}
		c.putTransformation(tr)
		return s.logOp(opTransformation, tr)
	})
}

// Transformation resolves a canonical reference. A versionless
// reference resolves to the unversioned registration if present,
// otherwise to the single registered version (it is ambiguous, and an
// error, if several versions exist).
func (c *Catalog) Transformation(ref string) (schema.Transformation, error) {
	s := c.shardOfTR(ref)
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.transformationLocked(ref)
}

// transformationLocked resolves a reference against one shard's state.
// Callers hold s.mu; every version of the ref's base is homed here.
func (s *cshard) transformationLocked(ref string) (schema.Transformation, error) {
	if tr, ok := s.transformations[ref]; ok {
		return tr, nil
	}
	ns, name, ver, err := schema.ParseTRRef(ref)
	if err != nil {
		return schema.Transformation{}, err
	}
	if ver == "" {
		base := schema.FormatTRRef(ns, name, "")
		versions := s.versionsOf[base]
		var nonEmpty []string
		for _, v := range versions {
			if v != "" {
				nonEmpty = append(nonEmpty, v)
			}
		}
		if len(nonEmpty) == 1 {
			return s.transformations[schema.FormatTRRef(ns, name, nonEmpty[0])], nil
		}
		if len(nonEmpty) > 1 {
			return schema.Transformation{}, fmt.Errorf("%w: transformation %q is ambiguous among versions %v", ErrNotFound, ref, nonEmpty)
		}
	}
	return schema.Transformation{}, fmt.Errorf("%w: transformation %q", ErrNotFound, ref)
}

// Versions lists the registered versions of a transformation name.
func (c *Catalog) Versions(namespace, name string) []string {
	base := schema.FormatTRRef(namespace, name, "")
	s := c.shardOfTR(base)
	s.mu.RLock()
	defer s.mu.RUnlock()
	vs := append([]string(nil), s.versionsOf[base]...)
	sort.Strings(vs)
	return vs
}

// Resolver returns a schema.Resolver view of the catalog for compound
// expansion.
func (c *Catalog) Resolver() schema.Resolver {
	return func(ref string) (schema.Transformation, error) {
		return c.Transformation(ref)
	}
}

// --- Compatibility assertions ------------------------------------------

// AssertCompatibility records a version-compatibility assertion.
// Assertions live on shard 0.
func (c *Catalog) AssertCompatibility(a schema.CompatibilityAssertion) (err error) {
	opAssertCompat.Inc()
	defer func() { err = countErr("assert_compat", err) }()
	if err := a.Validate(); err != nil {
		return err
	}
	return c.mutate(shardSet(0).with(0), func() error {
		s := c.shards[0]
		for _, old := range s.compat {
			if old == a {
				return nil
			}
		}
		s.compat = append(s.compat, a)
		s.ver++
		s.noteJournal(c, jCompat, "", false)
		return s.logOp(opCompat, a)
	})
}

// Compatible reports whether products of version v1 of a transformation
// satisfy requests for version v2 (or vice versa), under the recorded
// assertions. Equivalence is symmetric and transitive; an Incompatible
// assertion for the pair vetoes any derived equivalence.
func (c *Catalog) Compatible(namespace, name, v1, v2 string) bool {
	if v1 == v2 {
		return true
	}
	s := c.shards[0]
	s.mu.RLock()
	defer s.mu.RUnlock()
	// Collect equivalence edges and veto pairs for this transformation.
	adj := make(map[string][]string)
	veto := make(map[[2]string]bool)
	for _, a := range s.compat {
		if a.Namespace != namespace || a.Name != name {
			continue
		}
		switch a.Mode {
		case schema.Equivalent, schema.Supersedes:
			adj[a.V1] = append(adj[a.V1], a.V2)
			adj[a.V2] = append(adj[a.V2], a.V1)
		case schema.Incompatible:
			veto[[2]string{a.V1, a.V2}] = true
			veto[[2]string{a.V2, a.V1}] = true
		}
	}
	if veto[[2]string{v1, v2}] {
		return false
	}
	// BFS through the equivalence graph.
	seen := map[string]bool{v1: true}
	queue := []string{v1}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur == v2 {
			return true
		}
		for _, next := range adj[cur] {
			if !seen[next] && !veto[[2]string{v1, next}] {
				seen[next] = true
				queue = append(queue, next)
			}
		}
	}
	return false
}

// --- Derivations -------------------------------------------------------

// AddDerivation canonicalizes and registers a derivation. It returns
// the stored derivation.
//
// Behaviour implementing the paper's core promises:
//   - Duplicate detection: if a derivation with the same canonical
//     signature is already present, the stored one is returned together
//     with ErrDuplicate (callers typically treat this as success-and-reuse).
//   - Virtual data: output datasets that are not yet registered are
//     auto-registered as virtual (no descriptor) with CreatedBy linkage;
//     unknown input datasets are auto-registered as primary data.
//   - Provenance conflict: a dataset may have at most one producing
//     derivation.
//   - Type checking: every bound dataset with a declared type must
//     conform to the formal's type union.
//
// A derivation spans shards: its own record and secondary indexes live
// on the ID's shard, the transformation on its base's shard, and each
// input/output dataset's registration and provenance adjacency on that
// dataset's shard. The lock set is computed optimistically from a
// pre-lock resolution of the transformation (whose formals determine
// the bound datasets), then re-verified under the locks; a stale set
// recomputes and retries.
func (c *Catalog) AddDerivation(dv schema.Derivation) (_ schema.Derivation, err error) {
	opAddDV.Inc()
	defer func() {
		// Duplicate detection is success-and-reuse, not failure: count
		// it separately so the paper's dedup rate is observable.
		if errors.Is(err, ErrDuplicate) {
			dedupHits.Inc()
			return
		}
		err = countErr("add_derivation", err)
	}()
	dv = dv.Canonicalize()
	if err := dv.Validate(); err != nil {
		return schema.Derivation{}, err
	}
	var stored schema.Derivation
	for {
		// Optimistic peek: resolve the transformation to learn which
		// datasets the derivation binds (params plus formal defaults),
		// hence which shards the mutation must lock. Resolution failure
		// here still locks {ID, TR} so the duplicate check and the
		// authoritative under-lock resolution behave as before.
		set := shardSet(0).with(c.shardIndex(dv.ID)).with(c.shardIndex(trHome(dv.TR)))
		if tr, terr := c.Transformation(dv.TR); terr == nil {
			for _, name := range dv.Inputs(tr) {
				set = set.with(c.shardIndex(name))
			}
			for _, name := range dv.Outputs(tr) {
				set = set.with(c.shardIndex(name))
			}
		}
		err = c.mutate(set, func() error {
			home := c.shardOf(dv.ID)
			if existing, ok := home.derivations[dv.ID]; ok {
				stored = existing
				return ErrDuplicate
			}
			tr, err := c.shardOfTR(dv.TR).transformationLocked(dv.TR)
			if err != nil {
				return err
			}
			if err := dv.CheckBinding(tr); err != nil {
				return err
			}

			inputs := dv.Inputs(tr)
			outputs := dv.Outputs(tr)

			// The authoritative resolution may bind different datasets
			// than the peek did (the transformation or its defaults
			// changed, or the peek failed); retry with the right shards
			// if any fall outside the locked set.
			needed := shardSet(0)
			for _, name := range inputs {
				needed = needed.with(c.shardIndex(name))
			}
			for _, name := range outputs {
				needed = needed.with(c.shardIndex(name))
			}
			if !set.contains(needed) {
				return errRetryShards
			}

			// Type conformance for bound datasets that exist with a type.
			for _, f := range tr.Args {
				if !f.IsDataset() || len(f.Types) == 0 {
					continue
				}
				a, ok := dv.Params[f.Name]
				if !ok && f.Default != nil {
					a = *f.Default
				}
				for _, name := range a.Datasets() {
					if ds, ok := c.shardOf(name).datasets[name]; ok && !ds.Type.IsUniversal() {
						if !f.Accepts(c.types, ds.Type) {
							return fmt.Errorf("%w: dataset %q (%s) does not conform to formal %q of %s",
								ErrType, name, ds.Type, f.Name, tr.Ref())
						}
					}
				}
			}

			// A dataset has at most one producer, and cannot be both input and
			// output of one derivation. Validate fully before mutating so a
			// failed add leaves no partial state (or WAL records) behind.
			inputSet := make(map[string]bool, len(inputs))
			for _, in := range inputs {
				inputSet[in] = true
			}
			for _, out := range outputs {
				if prod, ok := c.shardOf(out).producerOf[out]; ok && prod != dv.ID {
					return fmt.Errorf("%w: dataset %q already produced by derivation %s", ErrConflict, out, prod)
				}
				if inputSet[out] {
					return fmt.Errorf("%w: dataset %q is both input and output of one derivation", ErrConflict, out)
				}
			}

			// Auto-register datasets, each on (and logged to) its own shard.
			for _, in := range inputs {
				ss := c.shardOf(in)
				if _, ok := ss.datasets[in]; !ok {
					ds := schema.Dataset{Name: in}
					c.putDataset(ds)
					if err := ss.logOp(opDataset, ds); err != nil {
						return err
					}
				}
			}
			for _, out := range outputs {
				ss := c.shardOf(out)
				if ds, ok := ss.datasets[out]; ok {
					if ds.CreatedBy == "" {
						ds.CreatedBy = dv.ID
						c.putDataset(ds)
						if err := ss.logOp(opDataset, ds); err != nil {
							return err
						}
					}
				} else {
					ds := schema.Dataset{Name: out, CreatedBy: dv.ID}
					c.putDataset(ds)
					if err := ss.logOp(opDataset, ds); err != nil {
						return err
					}
				}
			}

			c.indexDerivation(dv, tr)
			if err := home.logOp(opDerivation, dv); err != nil {
				return err
			}
			stored = dv
			return nil
		})
		if errors.Is(err, errRetryShards) {
			continue
		}
		if err != nil && !errors.Is(err, ErrDuplicate) {
			return schema.Derivation{}, err
		}
		return stored, err
	}
}

// Derivation returns the derivation with the given ID.
func (c *Catalog) Derivation(id string) (schema.Derivation, error) {
	s := c.shardOf(id)
	s.mu.RLock()
	defer s.mu.RUnlock()
	dv, ok := s.derivations[id]
	if !ok {
		return schema.Derivation{}, fmt.Errorf("%w: derivation %q", ErrNotFound, id)
	}
	return dv, nil
}

// FindDerivation checks whether an equivalent derivation (same
// canonical signature) is already registered — the paper's "has this
// computation been performed previously?" in O(1).
func (c *Catalog) FindDerivation(dv schema.Derivation) (schema.Derivation, bool) {
	sig := dv.Signature()
	s := c.shardOf(sig)
	s.mu.RLock()
	defer s.mu.RUnlock()
	found, ok := s.derivations[sig]
	return found, ok
}

// FindEquivalentDerivation extends FindDerivation with the paper's §8
// version-equivalence model: if no derivation matches exactly, the
// lookup retries under every registered version of the transformation
// asserted Compatible with the requested one. It returns the match and
// the transformation ref it was found under.
func (c *Catalog) FindEquivalentDerivation(dv schema.Derivation) (schema.Derivation, string, bool) {
	if found, ok := c.FindDerivation(dv); ok {
		return found, dv.TR, true
	}
	ns, name, ver, err := schema.ParseTRRef(dv.TR)
	if err != nil {
		return schema.Derivation{}, "", false
	}
	for _, v := range c.Versions(ns, name) {
		if v == ver || !c.Compatible(ns, name, ver, v) {
			continue
		}
		alt := dv
		alt.TR = schema.FormatTRRef(ns, name, v)
		alt.ID = ""
		if found, ok := c.FindDerivation(alt); ok {
			return found, alt.TR, true
		}
	}
	return schema.Derivation{}, "", false
}

// Derivations returns all derivations sorted by ID.
func (c *Catalog) Derivations() []schema.Derivation {
	c.rlockAll()
	defer c.runlockAll()
	var out []schema.Derivation
	for _, st := range c.shards {
		for _, dv := range st.derivations {
			out = append(out, dv)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// --- Invocations -------------------------------------------------------

// AddInvocation records an execution of a registered derivation.
func (c *Catalog) AddInvocation(iv schema.Invocation) error {
	wait, err := c.AddInvocationAsync(iv)
	if err != nil {
		return err
	}
	if wait != nil {
		return wait()
	}
	return nil
}

// AddInvocationAsync applies the invocation under its shard lock and
// returns without waiting for durability; the returned wait function
// blocks until the record's WAL batch is durable (ErrDurability on
// failure). wait is nil when there is nothing to wait for. Callers that
// need the synchronous contract use AddInvocation. Invocations are
// homed with their derivation, so the hot recording path is
// single-shard.
func (c *Catalog) AddInvocationAsync(iv schema.Invocation) (wait func() error, err error) {
	opAddIV.Inc()
	defer func() { err = countErr("add_invocation", err) }()
	if err := iv.Validate(); err != nil {
		return nil, err
	}
	w, err := c.mutateAsync(c.keySet(iv.Derivation), func() error {
		s := c.shardOf(iv.Derivation)
		if _, ok := s.derivations[iv.Derivation]; !ok {
			return fmt.Errorf("%w: invocation %q cites unknown derivation %q", ErrNotFound, iv.ID, iv.Derivation)
		}
		if _, ok := s.invocations[iv.ID]; ok {
			return fmt.Errorf("%w: invocation %q", ErrExists, iv.ID)
		}
		c.putInvocation(iv)
		return s.logOp(opInvocation, iv)
	})
	if err != nil || w == nil {
		return nil, err
	}
	return func() error { return countErr("add_invocation", w()) }, nil
}

// Invocation returns the invocation with the given ID. Invocations are
// homed by their derivation, so a by-ID lookup probes every shard
// (one map lookup each).
func (c *Catalog) Invocation(id string) (schema.Invocation, error) {
	c.rlockAll()
	defer c.runlockAll()
	for _, s := range c.shards {
		if iv, ok := s.invocations[id]; ok {
			return iv, nil
		}
	}
	return schema.Invocation{}, fmt.Errorf("%w: invocation %q", ErrNotFound, id)
}

// HasInvocations reports whether a derivation has recorded at least one
// invocation, without copying them — the cheap emptiness test the
// query layer's `executed` flag wants.
func (c *Catalog) HasInvocations(derivation string) bool {
	s := c.shardOf(derivation)
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.idx.executed.Has(derivation)
}

// InvocationCount returns the number of invocations recorded for a
// derivation.
func (c *Catalog) InvocationCount(derivation string) int {
	s := c.shardOf(derivation)
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.invocationsByDV[derivation])
}

// Invocations returns all invocations sorted by ID.
func (c *Catalog) Invocations() []schema.Invocation {
	c.rlockAll()
	defer c.runlockAll()
	var out []schema.Invocation
	for _, st := range c.shards {
		for _, iv := range st.invocations {
			out = append(out, iv)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// --- Replicas ----------------------------------------------------------

// AddReplica registers a physical replica of a known dataset.
func (c *Catalog) AddReplica(r schema.Replica) error {
	wait, err := c.AddReplicaAsync(r)
	if err != nil {
		return err
	}
	if wait != nil {
		return wait()
	}
	return nil
}

// AddReplicaAsync applies the replica under its shard lock and returns
// without waiting for durability, like AddInvocationAsync. Replicas
// are homed with their dataset, so registration is single-shard.
func (c *Catalog) AddReplicaAsync(r schema.Replica) (wait func() error, err error) {
	opAddReplica.Inc()
	defer func() { err = countErr("add_replica", err) }()
	if err := r.Validate(); err != nil {
		return nil, err
	}
	w, err := c.mutateAsync(c.keySet(r.Dataset), func() error {
		s := c.shardOf(r.Dataset)
		if _, ok := s.datasets[r.Dataset]; !ok {
			return fmt.Errorf("%w: replica %q cites unknown dataset %q", ErrNotFound, r.ID, r.Dataset)
		}
		if _, ok := s.replicas[r.ID]; ok {
			return fmt.Errorf("%w: replica %q", ErrExists, r.ID)
		}
		c.putReplica(r)
		return s.logOp(opReplica, r)
	})
	if err != nil || w == nil {
		return nil, err
	}
	return func() error { return countErr("add_replica", w()) }, nil
}

// RemoveReplica deletes a replica record (e.g. when a planner reclaims
// storage). Replicas are homed by dataset, which a bare ID does not
// reveal, so removal locks every shard; it is the rare administrative
// path, not the ingest path.
func (c *Catalog) RemoveReplica(id string) (err error) {
	opRmReplica.Inc()
	defer func() { err = countErr("remove_replica", err) }()
	return c.mutate(c.allSet(), func() error {
		r, ok := c.dropReplica(id)
		if !ok {
			return fmt.Errorf("%w: replica %q", ErrNotFound, id)
		}
		return c.shardOf(r.Dataset).logOp(opRemoveReplica, r.ID)
	})
}

// ReplicasOf lists the replicas of a dataset, in registration order.
func (c *Catalog) ReplicasOf(dataset string) []schema.Replica {
	s := c.shardOf(dataset)
	s.mu.RLock()
	defer s.mu.RUnlock()
	ids := s.replicasByDataset[dataset]
	out := make([]schema.Replica, 0, len(ids))
	for _, id := range ids {
		out = append(out, s.replicas[id])
	}
	return out
}

// Materialized reports whether a dataset has at least one replica at
// its current epoch.
func (c *Catalog) Materialized(dataset string) bool {
	s := c.shardOf(dataset)
	s.mu.RLock()
	defer s.mu.RUnlock()
	// The flag set is maintained by every mutation path (index.go), so
	// membership is the answer — no replica scan.
	return s.idx.materialized.Has(dataset)
}

// Stats summarizes catalog contents.
type Stats struct {
	Datasets, Transformations, Derivations, Invocations, Replicas int
}

// Stats returns object counts.
func (c *Catalog) Stats() Stats {
	c.rlockAll()
	defer c.runlockAll()
	var st Stats
	for _, ss := range c.shards {
		st.Datasets += len(ss.datasets)
		st.Transformations += len(ss.transformations)
		st.Derivations += len(ss.derivations)
		st.Invocations += len(ss.invocations)
		st.Replicas += len(ss.replicas)
	}
	return st
}

// equalJSON compares two values by canonical encoding.
func equalJSON(a, b any) bool {
	ab, err1 := schema.CanonicalBytes(a)
	bb, err2 := schema.CanonicalBytes(b)
	return err1 == nil && err2 == nil && string(ab) == string(bb)
}
