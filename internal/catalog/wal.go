package catalog

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"chimera/internal/codec"
	"chimera/internal/dtype"
	"chimera/internal/schema"
)

// Durability: every write is one batch of records (batch.go), appended
// to wal.bin in the catalog directory as one binary/v1 frame per
// record, back to back (frame.go), under one group commit; Snapshot()
// compacts the full state into the snapshot file and truncates the
// log. Open replays snapshot + log, so a crash between append and
// response loses at most the in-flight batch — or keeps a prefix of
// it: crash-atomicity of an unacknowledged batch is not claimed. The
// directory holds nothing else: both files are self-describing. Open
// refuses, before writing anything, a directory an earlier layout
// wrote (refuseLegacy), naming the command that converts it offline.

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
	if err := refuseLegacy(dir); err != nil {
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

// replay applies a binary log's records to the in-memory state and
// returns where its last whole frame ends. Only a torn *final* frame is
// tolerated; a frame that fails its checks with further records after
// it means the log itself is damaged, and silently dropping the tail
// would lose acknowledged state (frame.go).
func (c *Catalog) replay(data []byte) (int, error) {
	return readFrames(data, c.apply)
}

// apply replays one record directly onto the maps and indexes, without
// re-validation (records were validated before being logged) and
// without re-logging. v is the value op carries (codec.RecordKind).
func (c *Catalog) apply(op codec.RecordKind, v any) error {
	switch op {
	case codec.RecType:
		t := v.(codec.TypeDef)
		c.noteJournal(codec.RecType, "") // conformance answers change
		return c.types.Register(dtype.Dimension(t.Dim), t.Name, t.Parent)
	case codec.RecDataset:
		c.putDataset(v.(schema.Dataset))
	case codec.RecTransformation:
		c.putTransformation(v.(schema.Transformation))
	case codec.RecDerivation:
		dv := v.(schema.Derivation)
		tr, err := c.transformationLocked(dv.TR)
		if err != nil {
			return fmt.Errorf("derivation %s: %w", dv.ID, err)
		}
		c.indexDerivation(dv, tr)
	case codec.RecInvocation:
		c.putInvocation(v.(schema.Invocation))
	case codec.RecReplica:
		// A re-logged replica (e.g. epoch re-stamp) updates in place.
		c.putReplica(v.(schema.Replica))
	case codec.RecRemoveReplica:
		c.dropReplica(v.(string))
	case codec.RecCompat:
		a := v.(schema.CompatibilityAssertion)
		// A log replayed over a snapshot that already holds the
		// assertion (a crash between a snapshot's rename and the log's
		// truncation) must not add it twice.
		if !slices.Contains(c.compat, a) {
			c.compat = append(c.compat, a)
			c.noteJournal(codec.RecCompat, "")
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

// load applies a snapshot's records to an empty catalog, through the
// apply that replays the log.
func (c *Catalog) load(exp *Export) (err error) {
	records(exp, nil, func(r codec.Record) {
		if err == nil {
			err = c.apply(r.Kind, r.Value)
		}
	})
	if err != nil {
		return fmt.Errorf("catalog: snapshot: %w", err)
	}
	return nil
}

// Import merges an export into the catalog as one strict batch: all of
// it or, on the first conflict, none of it. Datasets, invocations and
// replicas already present and derivations registered before are
// skipped silently. The export's createdBy fields are ignored: the
// imported derivations link their outputs, as every derivation does.
func (c *Catalog) Import(exp Export) error {
	_, err := c.commit(strict, func(yield func(codec.Record)) { records(&exp, nil, yield) })
	return err
}

// ImportTolerant merges an export as one tolerant batch, skipping
// objects that conflict with existing state (and anything depending on
// them) instead of aborting; the first definition of a name wins. It
// returns the number of skipped objects. Federated indexes use it so
// one overlapping definition does not hide a whole member catalog. As
// with Import, createdBy follows the derivations the catalog holds.
func (c *Catalog) ImportTolerant(exp Export) int {
	skipped, _ := c.commit(tolerant, func(yield func(codec.Record)) { records(&exp, nil, yield) })
	return skipped
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
