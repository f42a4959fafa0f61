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
	// ErrInvalid reports a record the catalog does not hold in the form
	// given, e.g. a derivation of a compound transformation: the program
	// loader (vds.ApplyProgram) stores its simple leaves instead.
	ErrInvalid = errors.New("catalog: invalid record")
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

	// batch is the write in progress, reused from write to write so a
	// one-record write allocates no staging state. Guarded by mu.
	batch batch

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

// DefineType registers a dataset type in the catalog's registry and
// logs it for durability. The registry has its own lock, but a
// definition changes type-conformance answers, so it advances the
// sequence every cached query result is keyed on.
func (c *Catalog) DefineType(d dtype.Dimension, name, parent string) error {
	return await(c.put(codec.RecType, codec.TypeDef{Dim: int(d), Name: name, Parent: parent}))
}

// --- Datasets ---------------------------------------------------------

// AddDataset registers a dataset. Re-adding a byte-identical dataset is
// a no-op; redefining an existing name differently is ErrExists. Its
// CreatedBy is ignored, here as on every write: a dataset's producer is
// the registered derivation that outputs it, if any.
func (c *Catalog) AddDataset(ds schema.Dataset) error {
	return await(c.put(codec.RecDataset, ds))
}

// UpdateDataset replaces an existing dataset record (e.g. to attach a
// descriptor once the data is materialized, or bump the epoch). Its
// CreatedBy is ignored: the producer link stays what the catalog's
// derivations make it.
func (c *Catalog) UpdateDataset(ds schema.Dataset) (err error) {
	opUpdate.Inc()
	defer func() { err = countErr("update_dataset", err) }()
	if err := ds.Validate(); err != nil {
		return err
	}
	return await(c.write(strict, func(b *batch) error {
		old, ok := c.datasets[ds.Name]
		if !ok {
			return fmt.Errorf("%w: dataset %q", ErrNotFound, ds.Name)
		}
		if ds.Epoch < old.Epoch {
			return fmt.Errorf("%w: dataset %q epoch moved backwards (%d -> %d)", ErrConflict, ds.Name, old.Epoch, ds.Epoch)
		}
		b.stage(codec.RecDataset, ds)
		return nil
	}))
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
	err = await(c.write(strict, func(b *batch) error {
		ds, ok := c.datasets[name]
		if !ok {
			return fmt.Errorf("%w: dataset %q", ErrNotFound, name)
		}
		ds.Epoch++
		b.stage(codec.RecDataset, ds)
		if restampReplicas {
			for _, id := range c.replicasByDataset[name] {
				r := c.replicas[id]
				r.Epoch = ds.Epoch
				b.stage(codec.RecReplica, r)
			}
		}
		epoch = ds.Epoch
		return nil
	}))
	if err != nil {
		return 0, err
	}
	return epoch, nil
}

// Dataset returns the dataset with the given logical name. Its Attrs
// map (and any slice its Descriptor holds) is the catalog's own, shared
// and read-only: to change it, update a copy (maps.Clone) through
// UpdateDataset.
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
func (c *Catalog) AddTransformation(tr schema.Transformation) error {
	return await(c.put(codec.RecTransformation, tr))
}

// Transformation resolves a canonical reference. A versionless
// reference resolves to the unversioned registration if present,
// otherwise to the single registered version (it is ambiguous, and an
// error, if several versions exist). The maps and slices of the result
// are the catalog's own, shared and read-only.
func (c *Catalog) Transformation(ref string) (schema.Transformation, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.transformationLocked(ref)
}

// transformationLocked resolves a reference. Callers hold c.mu.
func (c *Catalog) transformationLocked(ref string) (schema.Transformation, error) {
	b := batch{c: c}
	return b.transformation(ref)
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
func (c *Catalog) AssertCompatibility(a schema.CompatibilityAssertion) error {
	return await(c.put(codec.RecCompat, a))
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

// AddDerivation canonicalizes and registers a derivation, with the
// checks and auto-registration batch.checkDerivation describes, and
// returns the stored derivation. A derivation whose canonical signature
// is already registered returns the stored one with ErrDuplicate
// (callers typically treat this as success-and-reuse).
func (c *Catalog) AddDerivation(dv schema.Derivation) (schema.Derivation, error) {
	dv = dv.Canonicalize()
	err := await(c.put(codec.RecDerivation, dv))
	if errors.Is(err, ErrDuplicate) {
		stored, _ := c.Derivation(dv.ID) // derivations are never removed
		return stored, err
	}
	if err != nil {
		return schema.Derivation{}, err
	}
	return dv, nil
}

// Derivation returns the derivation with the given ID. Its Params and
// Attrs are the catalog's own, shared and read-only.
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
	return await(c.put(codec.RecInvocation, iv))
}

// AddInvocationAsync applies the invocation under the write lock and
// returns without waiting for durability; the returned wait function
// blocks until the record's WAL batch is durable (ErrDurability on
// failure). wait is nil when there is nothing to wait for. Callers that
// need the synchronous contract use AddInvocation.
func (c *Catalog) AddInvocationAsync(iv schema.Invocation) (wait func() error, err error) {
	return c.put(codec.RecInvocation, iv)
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
	return await(c.put(codec.RecReplica, r))
}

// AddReplicaAsync applies the replica under the write lock and returns
// without waiting for durability, like AddInvocationAsync.
func (c *Catalog) AddReplicaAsync(r schema.Replica) (wait func() error, err error) {
	return c.put(codec.RecReplica, r)
}

// RemoveReplica deletes a replica record (e.g. when a planner reclaims
// storage).
func (c *Catalog) RemoveReplica(id string) error {
	return await(c.put(codec.RecRemoveReplica, id))
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
