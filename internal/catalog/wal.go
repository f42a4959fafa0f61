package catalog

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"chimera/internal/codec"
	"chimera/internal/dtype"
	"chimera/internal/schema"
)

// Durability: every mutation appends one binary/v1 frame per logged
// operation to wal.bin in the catalog directory (frame.go); Snapshot()
// compacts the full state into the snapshot file and truncates the
// log. Open replays snapshot + log, so a crash between append and
// response loses at most the in-flight operation. The directory holds
// nothing else: both files are self-describing. Directories written
// before that — a JSON-lines log (wal.jsonl, or a sharded directory's
// wal-<i>.jsonl), a JSON snapshot, a catalog-meta.json — are read
// once, on Open, and converted (legacy.go).

// opKind is the kind of one logged operation: a binary/v1 record kind.
type opKind = codec.RecordKind

const (
	opType           = codec.RecType
	opDataset        = codec.RecDataset
	opTransformation = codec.RecTransformation
	opDerivation     = codec.RecDerivation
	opInvocation     = codec.RecInvocation
	opReplica        = codec.RecReplica
	opRemoveReplica  = codec.RecRemoveReplica
	opCompat         = codec.RecCompat
)

type wal struct {
	f   *os.File
	com *committer // group-commit engine: the one write path
}

const walFile = "wal.bin"

// Options configure a durable catalog.
type Options struct {
	// Sync forces an fsync before a mutation is acknowledged. Slower but
	// survives OS crashes, not just process crashes. Group commit lets
	// concurrent mutations share one fsync per batch.
	Sync bool

	// Shards is ignored.
	//
	// Deprecated: ignored; the catalog has one lock.
	Shards int

	// SnapshotFormat must be "" or codec.BinaryName, the only snapshot
	// format; any other value makes Open fail.
	//
	// Deprecated: snapshots are always binary/v1.
	SnapshotFormat string
}

// Open loads (or creates) a durable catalog in dir. The registry seeds
// the type hierarchy for *new* catalogs; reopened catalogs restore
// their persisted registry and merge the seed into it.
func Open(dir string, seed *dtype.Registry, opts Options) (*Catalog, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("catalog: open: %w", err)
	}

	if f := opts.SnapshotFormat; f != "" && f != codec.BinaryName {
		return nil, fmt.Errorf("catalog: snapshot format %q: %s is the only snapshot format", f, codec.BinaryName)
	}
	legacyShards, meta, err := readLegacyMeta(dir)
	if err != nil {
		return nil, err
	}
	if err := checkShardLogs(dir, legacyShards); err != nil {
		return nil, err
	}

	c := New(dtype.NewRegistry())
	c.dir = dir
	if seed != nil {
		if err := c.types.Merge(seed); err != nil {
			return nil, err
		}
	}

	if err := c.loadSnapshot(); err != nil {
		return nil, err
	}
	if err := c.convertLegacy(legacyShards, meta); err != nil {
		return nil, err
	}
	logPath := filepath.Join(dir, walFile)
	whole, torn := 0, false
	if data, done, err := mapFile(logPath); err == nil {
		whole, err = c.replay(data)
		torn = whole < len(data)
		done() // decoded records own their memory
		if err != nil {
			return nil, err
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("catalog: wal: %w", err)
	}

	f, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("catalog: wal: %w", err)
	}
	c.wal = &wal{f: f, com: newCommitter(f, opts.Sync)}
	if torn {
		// Cut the torn tail off: a frame appended behind it would read
		// as log damage on the next replay.
		if err := f.Truncate(int64(whole)); err == nil {
			err = f.Sync()
		}
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("catalog: wal: torn tail: %w", err)
		}
	}
	// The log may have just been created.
	if err := syncDir(dir); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// Close flushes the group committer (returning its sticky failure, if
// any), makes the log durable, and closes it. The catalog remains usable
// in memory but further mutations are not persisted.
func (c *Catalog) Close() error {
	c.lock()
	defer c.mu.Unlock()
	w := c.wal
	if w == nil {
		return nil
	}
	c.wal = nil
	err := w.com.flush()
	if w.com.fsync && err == nil {
		// A clean shutdown must be as durable as every acknowledged
		// mutation: fsync before the descriptor goes away.
		if serr := w.f.Sync(); serr != nil {
			err = fmt.Errorf("catalog: wal close sync: %w", serr)
		}
	}
	if cerr := w.f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// DurabilityErr reports the WAL's sticky failure, if any: non-nil once a
// WAL write or fsync has failed, after which every further mutation is
// rejected. In-memory catalogs always return nil.
func (c *Catalog) DurabilityErr() error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.wal == nil {
		return nil
	}
	return c.wal.com.failure()
}

// logOp records one operation in the WAL. Callers hold the write lock.
// The record is only enqueued here; Catalog.mutate waits for its batch
// off-lock.
func (c *Catalog) logOp(op opKind, v any) error {
	if c.wal == nil {
		return nil
	}
	seq, err := c.wal.com.enqueue(op, v)
	if err != nil {
		return err
	}
	c.pendingSeq = seq
	return nil
}

// replay applies a binary log's records to the in-memory state and
// returns where its last whole frame ends. Only a torn *final* frame is
// tolerated; a frame that fails its checks with further records after
// it means the log itself is damaged, and silently dropping the tail
// would lose acknowledged state (frame.go).
func (c *Catalog) replay(data []byte) (int, error) {
	return readFrames(data, func(op opKind, v any) error { return c.apply(op, v, nil) })
}

// apply replays one record directly onto the maps and indexes, without
// re-validation (records were validated before being logged) and
// without re-logging. v is the value op carries (codec.RecordKind). A
// nil deferred makes a derivation whose transformation is unknown an
// error; a legacy conversion passes a list to collect such derivations
// instead (legacy.go).
func (c *Catalog) apply(op opKind, v any, deferred *[]schema.Derivation) error {
	switch op {
	case opType:
		t := v.(codec.TypeDef)
		c.noteJournal(jTypes, "", false) // conformance answers change
		return c.types.Register(dtype.Dimension(t.Dim), t.Name, t.Parent)
	case opDataset:
		c.putDataset(v.(schema.Dataset))
	case opTransformation:
		c.putTransformation(v.(schema.Transformation))
	case opDerivation:
		dv := v.(schema.Derivation)
		tr, err := c.transformationLocked(dv.TR)
		if err != nil {
			if deferred != nil {
				// The transformation may live in a legacy log not yet
				// replayed; retry after all are in (replayDeferred).
				*deferred = append(*deferred, dv)
				return nil
			}
			return fmt.Errorf("derivation %s: %w", dv.ID, err)
		}
		c.indexDerivation(dv, tr)
	case opInvocation:
		c.putInvocation(v.(schema.Invocation))
	case opReplica:
		// A re-logged replica (e.g. epoch re-stamp) updates in place.
		c.putReplica(v.(schema.Replica))
	case opRemoveReplica:
		c.dropReplica(v.(string))
	case opCompat:
		a := v.(schema.CompatibilityAssertion)
		// A log replayed over a snapshot that already holds the
		// assertion (a crash between a snapshot's rename and the log's
		// truncation) must not add it twice.
		if !slices.Contains(c.compat, a) {
			c.compat = append(c.compat, a)
			c.noteJournal(jCompat, "", false)
		}
	default:
		return fmt.Errorf("unknown op %d", op)
	}
	return nil
}

// Export is the full-state serialization used for snapshots and for
// shipping catalog contents between services (codec.Payload).
type Export = codec.Payload

// Export captures the catalog's full state under the read lock, in a
// deterministic order.
func (c *Catalog) Export() Export {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.exportLocked()
}

// Export serializes the view's full state.
func (v *View) Export() Export { return v.c.exportLocked() }

// applyExport loads an export into an empty catalog. Transformations
// land before derivations, so every reference resolves.
func (c *Catalog) applyExport(exp Export) error {
	if exp.Types != nil {
		if err := c.types.Merge(exp.Types); err != nil {
			return err
		}
		c.noteJournal(jTypes, "", false) // conformance answers change
	}
	for _, ds := range exp.Datasets {
		c.putDataset(ds)
	}
	for _, tr := range exp.Transformations {
		c.putTransformation(tr)
	}
	for _, dv := range exp.Derivations {
		tr, err := c.transformationLocked(dv.TR)
		if err != nil {
			return fmt.Errorf("catalog: import derivation %s: %w", dv.ID, err)
		}
		c.indexDerivation(dv, tr)
	}
	for _, iv := range exp.Invocations {
		c.putInvocation(iv)
	}
	for _, r := range exp.Replicas {
		if _, ok := c.replicas[r.ID]; !ok {
			c.putReplica(r)
		}
	}
	if len(exp.Compat) > 0 {
		c.compat = append(c.compat, exp.Compat...)
		c.noteJournal(jCompat, "", false)
	}
	return nil
}

// mergeTypes is the tolerant registry merge shared by ImportTolerant and
// ApplyDelta: best-effort, conflicting names keep their first parent.
// It runs under the mutation lock so the journal (and concurrent readers
// of the registry) see a consistent update.
func (c *Catalog) mergeTypes(reg *dtype.Registry) {
	_ = c.mutate(func() error {
		_ = c.types.Merge(reg)
		c.noteJournal(jTypes, "", false) // conformance answers change
		return nil
	})
}

// ImportTolerant merges an export, skipping objects that conflict with
// existing state (and anything depending on them) instead of aborting.
// It returns the number of skipped objects. Federated indexes use it so
// one overlapping definition does not hide a whole member catalog.
func (c *Catalog) ImportTolerant(exp Export) int {
	skipped := 0
	tolerate := func(err error) {
		if err != nil && !errors.Is(err, ErrDuplicate) {
			skipped++
		}
	}
	if exp.Types != nil {
		c.mergeTypes(exp.Types)
	}
	for _, tr := range exp.Transformations {
		tolerate(c.AddTransformation(tr))
	}
	for _, ds := range exp.Datasets {
		ds.CreatedBy = ""
		if err := c.AddDataset(ds); err != nil && !errors.Is(err, ErrExists) {
			skipped++
		}
	}
	for _, dv := range exp.Derivations {
		if _, err := c.AddDerivation(dv); err != nil && !errors.Is(err, ErrDuplicate) {
			skipped++
		}
	}
	for _, iv := range exp.Invocations {
		if err := c.AddInvocation(iv); err != nil && !errors.Is(err, ErrExists) {
			skipped++
		}
	}
	for _, r := range exp.Replicas {
		if err := c.AddReplica(r); err != nil && !errors.Is(err, ErrExists) {
			skipped++
		}
	}
	for _, a := range exp.Compat {
		if err := c.AssertCompatibility(a); err != nil {
			skipped++
		}
	}
	return skipped
}

// Import merges an export into the catalog, validating and logging each
// object through the public mutation paths. Duplicate derivations are
// skipped silently; other conflicts abort with an error.
func (c *Catalog) Import(exp Export) error {
	if exp.Types != nil {
		for _, d := range dtype.Dimensions() {
			// Parents must register before children: order by depth.
			names := exp.Types.Names(d)
			sort.Slice(names, func(i, j int) bool {
				di, dj := exp.Types.Depth(d, names[i]), exp.Types.Depth(d, names[j])
				if di != dj {
					return di < dj
				}
				return names[i] < names[j]
			})
			for _, name := range names {
				anc := exp.Types.Ancestors(d, name)
				parent := ""
				if len(anc) > 0 {
					parent = anc[0]
				}
				if err := c.DefineType(d, name, parent); err != nil {
					return err
				}
			}
		}
	}
	for _, tr := range exp.Transformations {
		if err := c.AddTransformation(tr); err != nil {
			return err
		}
	}
	for _, ds := range exp.Datasets {
		if ds.CreatedBy != "" {
			// Producer linkage is re-established by AddDerivation below.
			ds.CreatedBy = ""
		}
		if err := c.AddDataset(ds); err != nil && !errors.Is(err, ErrExists) {
			return err
		}
	}
	for _, dv := range exp.Derivations {
		if _, err := c.AddDerivation(dv); err != nil && !errors.Is(err, ErrDuplicate) {
			return err
		}
	}
	for _, iv := range exp.Invocations {
		if err := c.AddInvocation(iv); err != nil && !errors.Is(err, ErrExists) {
			return err
		}
	}
	for _, r := range exp.Replicas {
		if err := c.AddReplica(r); err != nil && !errors.Is(err, ErrExists) {
			return err
		}
	}
	for _, a := range exp.Compat {
		if err := c.AssertCompatibility(a); err != nil {
			return err
		}
	}
	return nil
}

// Snapshot compacts the durable state: the full catalog is written to
// the snapshot file and the WAL truncated, under the write lock so the
// snapshot is one consistent cut. No-op for in-memory catalogs.
func (c *Catalog) Snapshot() error {
	c.lock()
	defer c.mu.Unlock()
	if c.wal == nil {
		return nil
	}
	opSnapshot.Inc()
	defer metricSnapshot.ObserveSince(time.Now())
	exp := c.exportLocked()
	if err := c.writeSnapshotLocked(&exp); err != nil {
		return err
	}
	// Flush the committer (the lock is held, so the queue cannot grow),
	// then truncate the log now that the snapshot covers it.
	if err := c.wal.com.flush(); err != nil {
		return err
	}
	if err := c.wal.f.Truncate(0); err != nil {
		return err
	}
	_, err := c.wal.f.Seek(0, io.SeekStart)
	return err
}

// exportLocked copies the state into one sorted Export. Callers hold the
// lock (read or write).
func (c *Catalog) exportLocked() Export {
	exp := Export{Types: c.types.Clone()}
	for _, ds := range c.datasets {
		exp.Datasets = append(exp.Datasets, ds)
	}
	for _, tr := range c.transformations {
		exp.Transformations = append(exp.Transformations, tr)
	}
	for _, dv := range c.derivations {
		exp.Derivations = append(exp.Derivations, dv)
	}
	for _, iv := range c.invocations {
		exp.Invocations = append(exp.Invocations, iv)
	}
	for _, r := range c.replicas {
		exp.Replicas = append(exp.Replicas, r)
	}
	exp.Compat = append([]schema.CompatibilityAssertion(nil), c.compat...)
	exp.Sort()
	return exp
}
