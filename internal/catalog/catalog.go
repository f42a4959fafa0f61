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
// State lives under one lock with one write-ahead log and one change
// journal (state.go). Durability is write-ahead logging with snapshot
// compaction; see wal.go.
package catalog

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"chimera/internal/codec"
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

// Catalog is an in-memory VDC with optional write-ahead durability.
// It is safe for concurrent use: one RWMutex guards the object state,
// the journal and the WAL handle (state.go); the type registry has its
// own lock.
type Catalog struct {
	types *dtype.Registry

	mu sync.RWMutex

	// Embedding keeps every mutation and read addressing fields directly
	// (c.datasets, c.idx, ...). Guarded by mu.
	catalogState

	// Change journal (journal.go): the bounded tail of the catalog's
	// mutations, seq-ascending. trimmed is the highest sequence ever
	// dropped from it: a delta request `since` is serviceable iff
	// since >= trimmed. Guarded by mu.
	journal []journalEntry
	trimmed uint64
	jwindow int

	// jseq is the mutation sequence (advanced under mu, read without
	// it by Seq): every state change draws the next value, so it is
	// View.EpochKey's version and the query cache's invalidation key.
	// jinstance invalidates sequences across instances.
	jseq      atomic.Uint64
	jinstance uint64

	// memo is View.Memo's one slot. Views install it concurrently
	// under the read lock, hence atomic.
	memo atomic.Pointer[memoSlot]

	wal *wal // nil for purely in-memory catalogs; guarded by mu

	// pendingSeq is the group-commit sequence of the last WAL record the
	// current mutation enqueued; mutateAsync collects it and waits on it
	// after releasing the lock. Guarded by mu; always 0 between
	// mutations.
	pendingSeq uint64

	dir string // catalog directory; "" for in-memory catalogs
}

// New returns an empty in-memory catalog using the given type registry
// (nil for a fresh empty registry).
func New(types *dtype.Registry) *Catalog {
	if types == nil {
		types = dtype.NewRegistry()
	}
	return &Catalog{
		types:        types,
		catalogState: newCatalogState(),
		jwindow:      DefaultJournalWindow,
		jinstance:    newJournalInstance(),
	}
}

// NewSharded returns New(types).
//
// Deprecated: ignored; the catalog has one lock.
func NewSharded(types *dtype.Registry, shards int) *Catalog { return New(types) }

// Types returns the catalog's dataset-type registry.
func (c *Catalog) Types() *dtype.Registry { return c.types }

// mutate runs fn under the write lock, then — if fn enqueued WAL
// records on the group committer — blocks *outside* the lock until the
// batch holding them is durable. A mutation therefore never returns
// success before its records are written (and fsynced when
// Options.Sync is set), yet the fsync happens off-lock so concurrent
// writers share it instead of serializing on it. In-memory catalogs
// return as soon as fn does.
func (c *Catalog) mutate(fn func() error) error {
	wait, err := c.mutateAsync(fn)
	if err != nil {
		return err
	}
	if wait != nil {
		return wait()
	}
	return nil
}

// mutateAsync runs fn under the write lock and, instead of blocking
// for durability, returns a wait function the caller invokes (off any
// lock, possibly from another goroutine) to block until the batch
// holding fn's WAL records is durable. A nil wait means the mutation
// needs no waiting (in-memory catalog, or nothing logged). This is the
// primitive behind the executor's off-lock recording pipeline: applies
// stay ordered under the lock while many durability waits stay in
// flight at once, which is what lets the group committer batch them.
func (c *Catalog) mutateAsync(fn func() error) (wait func() error, err error) {
	c.lock()
	err = fn()
	// logOp set pendingSeq under this same lock hold, so the WAL it
	// enqueued on is still attached.
	seq := c.pendingSeq
	var com *committer
	if seq != 0 {
		com = c.wal.com
		c.pendingSeq = 0
	}
	c.mu.Unlock()
	if err != nil {
		// The operation failed after possibly enqueueing records (the
		// seed's partial-log semantics); its error wins either way.
		return nil, err
	}
	if com == nil {
		return nil, nil
	}
	return func() error { return com.wait(seq) }, nil
}

// DefineType registers a dataset type in the catalog's registry and
// logs it for durability.
func (c *Catalog) DefineType(d dtype.Dimension, name, parent string) (err error) {
	opDefineType.Inc()
	defer func() { err = countErr("define_type", err) }()
	return c.mutate(func() error {
		if err := c.types.Register(d, name, parent); err != nil {
			return err
		}
		// The registry is not part of the locked state (it has its own
		// lock), but a definition changes type-conformance answers —
		// advance the sequence so every cached query result built on
		// the old one invalidates.
		c.noteJournal(jTypes, "", false)
		return c.logOp(opType, codec.TypeDef{Dim: int(d), Name: name, Parent: parent})
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
	return c.mutate(func() error {
		if err := c.types.CheckType(ds.Type); err != nil {
			return fmt.Errorf("%w: dataset %q: %v", ErrType, ds.Name, err)
		}
		if old, ok := c.datasets[ds.Name]; ok {
			if equalJSON(old, ds) {
				return nil
			}
			return fmt.Errorf("%w: dataset %q", ErrExists, ds.Name)
		}
		if ds.CreatedBy != "" {
			if _, ok := c.derivations[ds.CreatedBy]; !ok {
				return fmt.Errorf("%w: dataset %q cites unknown derivation %q", ErrNotFound, ds.Name, ds.CreatedBy)
			}
		}
		c.putDataset(ds)
		return c.logOp(opDataset, ds)
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
	return c.mutate(func() error {
		old, ok := c.datasets[ds.Name]
		if !ok {
			return fmt.Errorf("%w: dataset %q", ErrNotFound, ds.Name)
		}
		if ds.Epoch < old.Epoch {
			return fmt.Errorf("%w: dataset %q epoch moved backwards (%d -> %d)", ErrConflict, ds.Name, old.Epoch, ds.Epoch)
		}
		c.putDataset(ds)
		return c.logOp(opDataset, ds)
	})
}

// BumpEpoch records an in-place update of a dataset (§8's "update"
// operation): the epoch increments, making all current-epoch state
// stale. When restampReplicas is true the dataset's existing replicas
// are re-stamped to the new epoch — the caller asserts the physical
// copies were corrected in place; when false they become stale and the
// dataset must be re-materialized.
func (c *Catalog) BumpEpoch(name string, restampReplicas bool) (_ int, err error) {
	opBumpEpoch.Inc()
	defer func() { err = countErr("bump_epoch", err) }()
	epoch := 0
	err = c.mutate(func() error {
		ds, ok := c.datasets[name]
		if !ok {
			return fmt.Errorf("%w: dataset %q", ErrNotFound, name)
		}
		ds.Epoch++
		c.putDataset(ds)
		if err := c.logOp(opDataset, ds); err != nil {
			return err
		}
		if restampReplicas {
			for _, id := range c.replicasByDataset[name] {
				r := c.replicas[id]
				r.Epoch = ds.Epoch
				c.putReplica(r)
				if err := c.logOp(opReplica, r); err != nil {
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
	c.mu.RLock()
	defer c.mu.RUnlock()
	ds, ok := c.datasets[name]
	if !ok {
		return schema.Dataset{}, fmt.Errorf("%w: dataset %q", ErrNotFound, name)
	}
	return ds, nil
}

// Datasets returns all datasets, sorted by name.
func (c *Catalog) Datasets() []schema.Dataset {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []schema.Dataset
	for _, ds := range c.datasets {
		out = append(out, ds)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// --- Transformations --------------------------------------------------

// AddTransformation registers a transformation under its canonical
// reference. Identical re-registration is a no-op.
func (c *Catalog) AddTransformation(tr schema.Transformation) (err error) {
	opAddTR.Inc()
	defer func() { err = countErr("add_transformation", err) }()
	if err := tr.Validate(); err != nil {
		return err
	}
	ref := tr.Ref()
	return c.mutate(func() error {
		for _, f := range tr.Args {
			for _, t := range f.Types {
				if err := c.types.CheckType(t); err != nil {
					return fmt.Errorf("%w: transformation %q formal %q: %v", ErrType, ref, f.Name, err)
				}
			}
		}
		if old, ok := c.transformations[ref]; ok {
			if equalJSON(old, tr) {
				return nil
			}
			return fmt.Errorf("%w: transformation %q", ErrExists, ref)
		}
		c.putTransformation(tr)
		return c.logOp(opTransformation, tr)
	})
}

// Transformation resolves a canonical reference. A versionless
// reference resolves to the unversioned registration if present,
// otherwise to the single registered version (it is ambiguous, and an
// error, if several versions exist).
func (c *Catalog) Transformation(ref string) (schema.Transformation, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.transformationLocked(ref)
}

// transformationLocked resolves a reference. Callers hold c.mu.
func (c *Catalog) transformationLocked(ref string) (schema.Transformation, error) {
	if tr, ok := c.transformations[ref]; ok {
		return tr, nil
	}
	ns, name, ver, err := schema.ParseTRRef(ref)
	if err != nil {
		return schema.Transformation{}, err
	}
	if ver == "" {
		base := schema.FormatTRRef(ns, name, "")
		versions := c.versionsOf[base]
		var nonEmpty []string
		for _, v := range versions {
			if v != "" {
				nonEmpty = append(nonEmpty, v)
			}
		}
		if len(nonEmpty) == 1 {
			return c.transformations[schema.FormatTRRef(ns, name, nonEmpty[0])], nil
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
	c.mu.RLock()
	defer c.mu.RUnlock()
	vs := append([]string(nil), c.versionsOf[base]...)
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
func (c *Catalog) AssertCompatibility(a schema.CompatibilityAssertion) (err error) {
	opAssertCompat.Inc()
	defer func() { err = countErr("assert_compat", err) }()
	if err := a.Validate(); err != nil {
		return err
	}
	return c.mutate(func() error {
		for _, old := range c.compat {
			if old == a {
				return nil
			}
		}
		c.compat = append(c.compat, a)
		c.noteJournal(jCompat, "", false)
		return c.logOp(opCompat, a)
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
	c.mu.RLock()
	defer c.mu.RUnlock()
	// Collect equivalence edges and veto pairs for this transformation.
	adj := make(map[string][]string)
	veto := make(map[[2]string]bool)
	for _, a := range c.compat {
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
	err = c.mutate(func() error {
		if existing, ok := c.derivations[dv.ID]; ok {
			stored = existing
			return ErrDuplicate
		}
		tr, err := c.transformationLocked(dv.TR)
		if err != nil {
			return err
		}
		if err := dv.CheckBinding(tr); err != nil {
			return err
		}

		inputs := dv.Inputs(tr)
		outputs := dv.Outputs(tr)

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
				if ds, ok := c.datasets[name]; ok && !ds.Type.IsUniversal() {
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
			if prod, ok := c.producerOf[out]; ok && prod != dv.ID {
				return fmt.Errorf("%w: dataset %q already produced by derivation %s", ErrConflict, out, prod)
			}
			if inputSet[out] {
				return fmt.Errorf("%w: dataset %q is both input and output of one derivation", ErrConflict, out)
			}
		}

		// Auto-register datasets.
		for _, in := range inputs {
			if _, ok := c.datasets[in]; !ok {
				ds := schema.Dataset{Name: in}
				c.putDataset(ds)
				if err := c.logOp(opDataset, ds); err != nil {
					return err
				}
			}
		}
		for _, out := range outputs {
			if ds, ok := c.datasets[out]; ok {
				if ds.CreatedBy == "" {
					ds.CreatedBy = dv.ID
					c.putDataset(ds)
					if err := c.logOp(opDataset, ds); err != nil {
						return err
					}
				}
			} else {
				ds := schema.Dataset{Name: out, CreatedBy: dv.ID}
				c.putDataset(ds)
				if err := c.logOp(opDataset, ds); err != nil {
					return err
				}
			}
		}

		c.indexDerivation(dv, tr)
		if err := c.logOp(opDerivation, dv); err != nil {
			return err
		}
		stored = dv
		return nil
	})
	if err != nil && !errors.Is(err, ErrDuplicate) {
		return schema.Derivation{}, err
	}
	return stored, err
}

// Derivation returns the derivation with the given ID.
func (c *Catalog) Derivation(id string) (schema.Derivation, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	dv, ok := c.derivations[id]
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
	c.mu.RLock()
	defer c.mu.RUnlock()
	found, ok := c.derivations[sig]
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
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []schema.Derivation
	for _, dv := range c.derivations {
		out = append(out, dv)
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

// AddInvocationAsync applies the invocation under the write lock and
// returns without waiting for durability; the returned wait function
// blocks until the record's WAL batch is durable (ErrDurability on
// failure). wait is nil when there is nothing to wait for. Callers that
// need the synchronous contract use AddInvocation.
func (c *Catalog) AddInvocationAsync(iv schema.Invocation) (wait func() error, err error) {
	opAddIV.Inc()
	defer func() { err = countErr("add_invocation", err) }()
	if err := iv.Validate(); err != nil {
		return nil, err
	}
	w, err := c.mutateAsync(func() error {
		if _, ok := c.derivations[iv.Derivation]; !ok {
			return fmt.Errorf("%w: invocation %q cites unknown derivation %q", ErrNotFound, iv.ID, iv.Derivation)
		}
		if _, ok := c.invocations[iv.ID]; ok {
			return fmt.Errorf("%w: invocation %q", ErrExists, iv.ID)
		}
		c.putInvocation(iv)
		return c.logOp(opInvocation, iv)
	})
	if err != nil || w == nil {
		return nil, err
	}
	return func() error { return countErr("add_invocation", w()) }, nil
}

// Invocation returns the invocation with the given ID.
func (c *Catalog) Invocation(id string) (schema.Invocation, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if iv, ok := c.invocations[id]; ok {
		return iv, nil
	}
	return schema.Invocation{}, fmt.Errorf("%w: invocation %q", ErrNotFound, id)
}

// HasInvocations reports whether a derivation has recorded at least one
// invocation, without copying them — the cheap emptiness test the
// query layer's `executed` flag wants.
func (c *Catalog) HasInvocations(derivation string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.idx.executed.Has(derivation)
}

// InvocationCount returns the number of invocations recorded for a
// derivation.
func (c *Catalog) InvocationCount(derivation string) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.invocationsByDV[derivation])
}

// Invocations returns all invocations sorted by ID.
func (c *Catalog) Invocations() []schema.Invocation {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []schema.Invocation
	for _, iv := range c.invocations {
		out = append(out, iv)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// --- Replicas ----------------------------------------------------------

// AddReplica registers a physical replica of a known dataset. Replica
// IDs are unique across the catalog, whatever dataset they cite.
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

// AddReplicaAsync applies the replica under the write lock and returns
// without waiting for durability, like AddInvocationAsync.
func (c *Catalog) AddReplicaAsync(r schema.Replica) (wait func() error, err error) {
	opAddReplica.Inc()
	defer func() { err = countErr("add_replica", err) }()
	if err := r.Validate(); err != nil {
		return nil, err
	}
	w, err := c.mutateAsync(func() error {
		if _, ok := c.datasets[r.Dataset]; !ok {
			return fmt.Errorf("%w: replica %q cites unknown dataset %q", ErrNotFound, r.ID, r.Dataset)
		}
		if _, ok := c.replicas[r.ID]; ok {
			return fmt.Errorf("%w: replica %q", ErrExists, r.ID)
		}
		c.putReplica(r)
		return c.logOp(opReplica, r)
	})
	if err != nil || w == nil {
		return nil, err
	}
	return func() error { return countErr("add_replica", w()) }, nil
}

// RemoveReplica deletes a replica record (e.g. when a planner reclaims
// storage).
func (c *Catalog) RemoveReplica(id string) (err error) {
	opRmReplica.Inc()
	defer func() { err = countErr("remove_replica", err) }()
	return c.mutate(func() error {
		if !c.dropReplica(id) {
			return fmt.Errorf("%w: replica %q", ErrNotFound, id)
		}
		return c.logOp(opRemoveReplica, id)
	})
}

// ReplicasOf lists the replicas of a dataset, in registration order.
func (c *Catalog) ReplicasOf(dataset string) []schema.Replica {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ids := c.replicasByDataset[dataset]
	out := make([]schema.Replica, 0, len(ids))
	for _, id := range ids {
		out = append(out, c.replicas[id])
	}
	return out
}

// Materialized reports whether a dataset has at least one replica at
// its current epoch.
func (c *Catalog) Materialized(dataset string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	// The flag set is maintained by every mutation path (index.go), so
	// membership is the answer — no replica scan.
	return c.idx.materialized.Has(dataset)
}

// Stats summarizes catalog contents.
type Stats struct {
	Datasets, Transformations, Derivations, Invocations, Replicas int
}

// Stats returns object counts.
func (c *Catalog) Stats() Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return Stats{
		Datasets:        len(c.datasets),
		Transformations: len(c.transformations),
		Derivations:     len(c.derivations),
		Invocations:     len(c.invocations),
		Replicas:        len(c.replicas),
	}
}

// equalJSON compares two values by canonical encoding.
func equalJSON(a, b any) bool {
	ab, err1 := schema.CanonicalBytes(a)
	bb, err2 := schema.CanonicalBytes(b)
	return err1 == nil && err2 == nil && string(ab) == string(bb)
}
