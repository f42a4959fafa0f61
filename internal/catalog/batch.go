package catalog

import (
	"errors"
	"fmt"
	"slices"

	"chimera/internal/codec"
	"chimera/internal/dtype"
	"chimera/internal/schema"
)

// The mutation pipeline. Every change to the catalog is a batch of the
// records its log carries (codec.Record). Under one hold of the write
// lock, each record is checked against the state plus the records
// accepted before it and stages what it expands to (nothing for a
// no-op; a derivation's auto-registered datasets, then itself); the
// staged records are applied by apply, the function replay uses, and
// encoded into the group committer back to back. The caller then waits
// once, off-lock, for the group commit holding them. A strict batch
// (the public mutators, Import, VDL programs) is all or nothing; a
// tolerant one (ImportTolerant, ApplyDelta) skips and counts a failing
// record, and what depends on it fails its own check in turn.
//
// A reader sees all of a batch or none of it. Crash-atomicity of an
// unacknowledged batch is not claimed: a crash mid-write may leave a
// prefix of its frames, and replay keeps it.

// batchMode says what a batch does with a record that fails its check.
type batchMode uint8

const (
	strict   batchMode = iota // the first failure fails the batch
	tolerant                  // a failing record is skipped and counted
	// fold is tolerant, and a dataset or replica record replaces the one
	// it names, because a delta ships each object's current value.
	fold
)

// benign reports whether a multi-record batch takes err, the verdict on
// a record of kind k, as a no-op: a dataset, invocation or replica that
// is already there, a derivation registered before, a removal of what
// is already gone and, when tolerant, a conflicting type, which keeps
// its first parent.
func (m batchMode) benign(k codec.RecordKind, err error) bool {
	switch k {
	case codec.RecType:
		return m != strict
	case codec.RecDerivation:
		return errors.Is(err, ErrDuplicate)
	case codec.RecRemoveReplica:
		return errors.Is(err, ErrNotFound)
	case codec.RecDataset, codec.RecInvocation, codec.RecReplica:
		return errors.Is(err, ErrExists)
	}
	return false
}

// batch is the write in progress (Catalog.batch). Callers hold the
// write lock.
type batch struct {
	c    *Catalog
	mode batchMode
	recs []codec.Record // staged, not yet applied
	ov   overlay        // recs[:synced], indexed for later checks
	// synced counts the staged records ov holds; seq is the group-commit
	// sequence of the last record logged.
	synced int
	seq    uint64
}

// overlay indexes the staged records by what checks look up. Its maps
// stay nil — a one-record batch allocates none — until a check follows
// a staged record; reads of a nil map find nothing. A removed replica
// maps to the zero Replica.
type overlay struct {
	types    *dtype.Registry // a clone of the catalog's, once a type is staged
	datasets map[string]schema.Dataset
	trs      map[string]schema.Transformation
	versions map[string][]string // "ns::name" -> staged versions
	dvs      map[string]schema.Derivation
	producer map[string]string
	ivs      map[string]schema.Invocation
	replicas map[string]schema.Replica
	compat   map[schema.CompatibilityAssertion]bool
}

// lookup reads key from the staged records, then from the state.
func lookup[V any](staged, state map[string]V, key string) (V, bool) {
	if v, ok := staged[key]; ok {
		return v, true
	}
	v, ok := state[key]
	return v, ok
}

// stage appends a record to the batch. A dataset is staged, and so
// logged, without CreatedBy: the producer link is the derivations'
// (indexDerivation), and putDataset sets it.
func (b *batch) stage(k codec.RecordKind, v any) {
	if ds, ok := v.(schema.Dataset); ok && ds.CreatedBy != "" {
		ds.CreatedBy = ""
		v = ds
	}
	b.recs = append(b.recs, codec.Record{Kind: k, Value: v})
}

func (b *batch) types() *dtype.Registry {
	if b.ov.types != nil {
		return b.ov.types
	}
	return b.c.types
}

// sync indexes the staged records the overlay does not hold yet.
func (b *batch) sync() {
	ov := &b.ov
	if b.synced < len(b.recs) && ov.datasets == nil {
		*ov = overlay{datasets: map[string]schema.Dataset{}, trs: map[string]schema.Transformation{},
			versions: map[string][]string{}, dvs: map[string]schema.Derivation{}, producer: map[string]string{},
			ivs: map[string]schema.Invocation{}, replicas: map[string]schema.Replica{},
			compat: map[schema.CompatibilityAssertion]bool{}}
	}
	for ; b.synced < len(b.recs); b.synced++ {
		switch v := b.recs[b.synced].Value.(type) {
		case codec.TypeDef:
			if ov.types == nil {
				ov.types = b.c.types.Clone()
			}
			ov.types.Register(dtype.Dimension(v.Dim), v.Name, v.Parent)
		case schema.Dataset:
			ov.datasets[v.Name] = v
		case schema.Transformation:
			ov.trs[v.Ref()] = v
			base := schema.FormatTRRef(v.Namespace, v.Name, "")
			ov.versions[base] = append(ov.versions[base], v.Version)
		case schema.Derivation:
			ov.dvs[v.ID] = v
			tr, _ := b.transformation(v.TR)
			for _, out := range v.Outputs(tr) {
				ov.producer[out] = v.ID
			}
		case schema.Invocation:
			ov.ivs[v.ID] = v
		case schema.Replica:
			ov.replicas[v.ID] = v
		case string:
			ov.replicas[v] = schema.Replica{}
		case schema.CompatibilityAssertion:
			ov.compat[v] = true
		}
	}
}

// transformation resolves a reference against the state plus the
// staged records. A versionless reference resolves to the unversioned
// registration if present, otherwise to the single registered version
// (it is ambiguous, and an error, if several versions exist).
func (b *batch) transformation(ref string) (schema.Transformation, error) {
	if tr, ok := lookup(b.ov.trs, b.c.transformations, ref); ok {
		return tr, nil
	}
	ns, name, ver, err := schema.ParseTRRef(ref)
	if err != nil {
		return schema.Transformation{}, err
	}
	if ver == "" {
		base := schema.FormatTRRef(ns, name, "")
		var nonEmpty []string
		for _, vs := range [][]string{b.c.versionsOf[base], b.ov.versions[base]} {
			for _, v := range vs {
				if v != "" {
					nonEmpty = append(nonEmpty, v)
				}
			}
		}
		if len(nonEmpty) == 1 {
			tr, _ := lookup(b.ov.trs, b.c.transformations, schema.FormatTRRef(ns, name, nonEmpty[0]))
			return tr, nil
		}
		if len(nonEmpty) > 1 {
			return schema.Transformation{}, fmt.Errorf("%w: transformation %q is ambiguous among versions %v", ErrNotFound, ref, nonEmpty)
		}
	}
	return schema.Transformation{}, fmt.Errorf("%w: transformation %q", ErrNotFound, ref)
}

// prepare canonicalizes a record and checks what it can without the
// state.
func prepare(r codec.Record) (codec.Record, error) {
	if dv, ok := r.Value.(schema.Derivation); ok && dv.ID == "" {
		r.Value = dv.Canonicalize()
	}
	if v, ok := r.Value.(interface{ Validate() error }); ok {
		return r, v.Validate()
	}
	return r, nil
}

// check checks one prepared record against the state plus the staged
// records and stages what it expands to.
func (b *batch) check(r codec.Record) error {
	b.sync()
	c := b.c
	switch v := r.Value.(type) {
	case codec.TypeDef:
		known, err := b.types().Check(dtype.Dimension(v.Dim), v.Name, v.Parent)
		if err != nil || known {
			return err
		}
	case schema.Dataset:
		if err := b.types().CheckType(v.Type); err != nil {
			return fmt.Errorf("%w: dataset %q: %v", ErrType, v.Name, err)
		}
		if old, ok := lookup(b.ov.datasets, c.datasets, v.Name); ok {
			old.CreatedBy, v.CreatedBy = "", "" // the catalog's to set
			switch {
			case equalJSON(old, v):
				return nil
			case b.mode != fold:
				return fmt.Errorf("%w: dataset %q", ErrExists, v.Name)
			case v.Epoch < old.Epoch:
				return fmt.Errorf("%w: dataset %q epoch moved backwards (%d -> %d)", ErrConflict, v.Name, old.Epoch, v.Epoch)
			}
		}
	case schema.Transformation:
		ref := v.Ref()
		for _, f := range v.Args {
			for _, t := range f.Types {
				if err := b.types().CheckType(t); err != nil {
					return fmt.Errorf("%w: transformation %q formal %q: %v", ErrType, ref, f.Name, err)
				}
			}
		}
		if old, ok := lookup(b.ov.trs, c.transformations, ref); ok {
			if equalJSON(old, v) {
				return nil
			}
			return fmt.Errorf("%w: transformation %q", ErrExists, ref)
		}
	case schema.Derivation:
		if err := b.checkDerivation(v); err != nil {
			return err
		}
	case schema.Invocation:
		if _, ok := lookup(b.ov.dvs, c.derivations, v.Derivation); !ok {
			return fmt.Errorf("%w: invocation %q cites unknown derivation %q", ErrNotFound, v.ID, v.Derivation)
		}
		if _, ok := lookup(b.ov.ivs, c.invocations, v.ID); ok {
			return fmt.Errorf("%w: invocation %q", ErrExists, v.ID)
		}
	case schema.Replica:
		if _, ok := lookup(b.ov.datasets, c.datasets, v.Dataset); !ok {
			return fmt.Errorf("%w: replica %q cites unknown dataset %q", ErrNotFound, v.ID, v.Dataset)
		}
		if old, ok := lookup(b.ov.replicas, c.replicas, v.ID); ok && old.ID != "" {
			switch {
			case b.mode != fold:
				return fmt.Errorf("%w: replica %q", ErrExists, v.ID)
			case equalJSON(old, v):
				return nil
			case old.Dataset != v.Dataset:
				// The source removed the replica and registered the ID
				// again under another dataset.
				b.stage(codec.RecRemoveReplica, v.ID)
			}
		}
	case string:
		if r, ok := lookup(b.ov.replicas, c.replicas, v); !ok || r.ID == "" {
			return fmt.Errorf("%w: replica %q", ErrNotFound, v)
		}
	case schema.CompatibilityAssertion:
		if b.ov.compat[v] || slices.Contains(c.compat, v) {
			return nil
		}
	}
	b.stage(r.Kind, r.Value)
	return nil
}

// checkDerivation implements the paper's core promises for one
// derivation, staging the datasets it registers:
//   - simple derivations only: a derivation of a compound
//     transformation is ErrInvalid (the program loader expands it);
//   - duplicate detection: a derivation whose canonical signature is
//     already registered is ErrDuplicate (reuse, not failure);
//   - virtual data: unregistered outputs are registered as virtual,
//     and unknown inputs as primary data (applying the derivation links
//     its outputs to it: indexDerivation);
//   - provenance: a dataset has at most one producing derivation, and
//     is not both input and output of one;
//   - types: every bound dataset with a declared type conforms to its
//     formal's type union.
func (b *batch) checkDerivation(dv schema.Derivation) error {
	c := b.c
	if _, ok := lookup(b.ov.dvs, c.derivations, dv.ID); ok {
		return ErrDuplicate
	}
	tr, err := b.transformation(dv.TR)
	if err != nil {
		return err
	}
	if tr.Kind == schema.Compound {
		return fmt.Errorf("%w: derivation of compound transformation %q: load it as a VDL program (POST /v1/vdl, chimera insert), which stores its simple leaves", ErrInvalid, tr.Ref())
	}
	if err := dv.CheckBinding(tr); err != nil {
		return err
	}
	for _, f := range tr.Args {
		if !f.IsDataset() || len(f.Types) == 0 {
			continue
		}
		a, ok := dv.Params[f.Name]
		if !ok && f.Default != nil {
			a = *f.Default
		}
		for _, name := range a.Datasets() {
			if ds, ok := lookup(b.ov.datasets, c.datasets, name); ok && !ds.Type.IsUniversal() && !f.Accepts(b.types(), ds.Type) {
				return fmt.Errorf("%w: dataset %q (%s) does not conform to formal %q of %s",
					ErrType, name, ds.Type, f.Name, tr.Ref())
			}
		}
	}
	inputs, outputs := dv.Inputs(tr), dv.Outputs(tr)
	for _, out := range outputs {
		if prod, ok := lookup(b.ov.producer, c.producerOf, out); ok && prod != dv.ID {
			return fmt.Errorf("%w: dataset %q already produced by derivation %s", ErrConflict, out, prod)
		}
		if slices.Contains(inputs, out) {
			return fmt.Errorf("%w: dataset %q is both input and output of one derivation", ErrConflict, out)
		}
	}
	for _, names := range [2][]string{inputs, outputs} {
		for _, name := range names {
			if _, ok := lookup(b.ov.datasets, c.datasets, name); !ok {
				b.stage(codec.RecDataset, schema.Dataset{Name: name})
			}
		}
	}
	return nil
}

// flush applies the staged records and logs them as one group. The
// batch is empty afterwards. A log that fails (ErrDurability) leaves
// them applied in memory, as a failed group commit does.
func (b *batch) flush() error {
	recs, c := b.recs, b.c
	b.recs, b.ov, b.synced = b.recs[:0], overlay{}, 0
	for _, r := range recs {
		if err := c.apply(r.Kind, r.Value); err != nil {
			return err
		}
	}
	if c.wal == nil || len(recs) == 0 {
		return nil
	}
	seq, err := c.wal.com.enqueue(recs)
	if err == nil {
		b.seq = seq
	}
	return err
}

// write runs stage, which checks records into b, under the write lock.
// If stage fails, nothing it staged applies; otherwise the staged
// records are applied and logged before the lock is released. The
// returned wait blocks, off-lock and possibly on another goroutine,
// until their group commit is durable; it is nil if nothing was logged.
func (c *Catalog) write(mode batchMode, stage func(b *batch) error) (wait func() error, err error) {
	c.lock()
	b := &c.batch
	*b = batch{c: c, mode: mode, recs: b.recs[:0]}
	if err = stage(b); err == nil {
		err = b.flush()
	}
	if cap(b.recs) > 1<<10 {
		b.recs = nil // do not pin a large batch's array
	}
	clear(b.recs[:cap(b.recs)]) // nor the values a small one held
	if seq := b.seq; err == nil && seq != 0 {
		com := c.wal.com
		wait = func() error { return com.wait(seq) }
	}
	c.mu.Unlock()
	return wait, err
}

// put takes in one record as a one-record strict batch and returns a
// wait for its group commit, as write does; await(c.put(…)) is the
// synchronous form.
func (c *Catalog) put(k codec.RecordKind, v any) (func() error, error) {
	r, err := prepare(codec.Record{Kind: k, Value: v})
	var wait func() error
	if err == nil {
		wait, err = c.write(strict, func(b *batch) error { return b.check(r) })
	}
	if err = count(k, err); err != nil || wait == nil {
		return nil, err
	}
	return func() error { return countErr(kindOps[k].name, wait()) }, nil
}

// await waits for a write's group commit, if it logged anything, and
// returns the write's error otherwise.
func await(wait func() error, err error) error {
	if wait != nil {
		return wait()
	}
	return err
}

// commit takes in the records each yields as one batch and returns how
// many a tolerant batch skipped. A strict batch returns the first
// failure. If the group commit fails, every record counts as skipped.
// Records are prepared before the lock is taken: canonicalizing a
// derivation hashes it.
func (c *Catalog) commit(mode batchMode, each func(yield func(codec.Record))) (skipped int, err error) {
	// tally takes one record's verdict: nil to go on, or the strict
	// batch's failure.
	tally := func(k codec.RecordKind, err error) error {
		switch err = count(k, err); {
		case err == nil || mode.benign(k, err):
		case mode == strict:
			return err
		default:
			skipped++
		}
		return nil
	}
	var recs []codec.Record
	n := 0
	each(func(r codec.Record) {
		n++
		if r, perr := prepare(r); perr == nil {
			recs = append(recs, r)
		} else if err == nil {
			err = tally(r.Kind, perr)
		}
	})
	if err != nil {
		return 0, err
	}
	wait, err := c.write(mode, func(b *batch) error {
		for _, r := range recs {
			err := b.check(r)
			if err == nil && mode != strict {
				err = b.flush() // a tolerant batch cannot fail as a whole
			}
			if err := tally(r.Kind, err); err != nil {
				return err
			}
		}
		return nil
	})
	if wait != nil {
		if err = wait(); err != nil {
			skipped = n
		}
	}
	return skipped, err
}

// records yields an export's objects as log records, in an order that
// applies cleanly: types (parents first), transformations, datasets,
// derivations, invocations, removals of the replicas named in removed,
// replicas, compatibility assertions. The datasets' createdBy fields
// are ignored where they are taken in (putDataset): the derivations
// that follow them link their outputs.
func records(exp *Export, removed []string, yield func(codec.Record)) {
	if exp.Types != nil {
		exp.Types.Each(func(d dtype.Dimension, name, parent string) {
			yield(codec.Record{Kind: codec.RecType, Value: codec.TypeDef{Dim: int(d), Name: name, Parent: parent}})
		})
	}
	yieldAll(yield, codec.RecTransformation, exp.Transformations)
	yieldAll(yield, codec.RecDataset, exp.Datasets)
	yieldAll(yield, codec.RecDerivation, exp.Derivations)
	yieldAll(yield, codec.RecInvocation, exp.Invocations)
	yieldAll(yield, codec.RecRemoveReplica, removed)
	yieldAll(yield, codec.RecReplica, exp.Replicas)
	yieldAll(yield, codec.RecCompat, exp.Compat)
}

func yieldAll[T any](yield func(codec.Record), k codec.RecordKind, vs []T) {
	for _, v := range vs {
		yield(codec.Record{Kind: k, Value: v})
	}
}
