package catalog

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"chimera/internal/dtype"
	"chimera/internal/schema"
)

// Durability: every mutation appends one JSON-lines record to its home
// shard's WAL in the catalog directory (wal.jsonl for a single-shard
// catalog, wal-<i>.jsonl per shard otherwise); Snapshot() compacts the
// full merged state into snapshot.json and truncates every log. Open
// replays snapshot + logs, so a crash between append and response
// loses at most the in-flight operation. catalog-meta.json pins the
// shard count a directory was created with — the on-disk count always
// wins over Options.Shards on reopen, because each record must replay
// against the same routing that wrote it.

type opKind string

const (
	opType           opKind = "type"
	opDataset        opKind = "dataset"
	opTransformation opKind = "transformation"
	opDerivation     opKind = "derivation"
	opInvocation     opKind = "invocation"
	opReplica        opKind = "replica"
	opRemoveReplica  opKind = "remove-replica"
	opCompat         opKind = "compat"
)

type walRecord struct {
	Op   opKind          `json:"op"`
	Data json.RawMessage `json:"data"`
}

// walEnvelope is the write-side shape of walRecord: Data holds the
// value itself so a record encodes in one pass instead of marshal +
// re-marshal through a RawMessage.
type walEnvelope struct {
	Op   opKind `json:"op"`
	Data any    `json:"data"`
}

type typeRecord struct {
	Dim    int    `json:"dim"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
}

type wal struct {
	f   *os.File
	com *committer // group-commit engine: the one write path
}

const (
	walFile      = "wal.jsonl"
	snapshotFile = "snapshot.json"
	metaFile     = "catalog-meta.json"
)

// catalogMeta pins on-disk layout facts that must survive reopen.
type catalogMeta struct {
	Shards int `json:"shards"`
	// SnapshotFormat is the codec name Snapshot() writes with
	// (codec.JSONName or codec.BinaryName). Empty in metas written
	// before the codec registry existed; resolved to the requested
	// format (and re-recorded) on first reopen.
	SnapshotFormat string `json:"snapshot_format,omitempty"`
}

// walPath returns shard i's log path under the n-shard layout. A
// single-shard catalog keeps the pre-sharding name so existing
// directories reopen unchanged.
func walPath(dir string, i, n int) string {
	if n == 1 {
		return filepath.Join(dir, walFile)
	}
	return filepath.Join(dir, "wal-"+strconv.Itoa(i)+".jsonl")
}

// Options configure a durable catalog.
type Options struct {
	// Sync forces an fsync before a mutation is acknowledged. Slower but
	// survives OS crashes, not just process crashes. Group commit lets
	// concurrent mutations share one fsync per batch.
	Sync bool

	// Shards partitions the catalog (clamped to [1, MaxShards]): each
	// shard owns its own lock, WAL file, change journal, and secondary
	// indexes, so concurrent writers on different objects proceed in
	// parallel. 0 means 1. The count is fixed at directory creation
	// (recorded in catalog-meta.json) and the recorded count wins on
	// reopen; a directory holding pre-sharding state without a meta
	// file reopens single-shard.
	Shards int

	// SnapshotFormat names the codec Snapshot() persists with:
	// codec.JSONName (the default when empty) or codec.BinaryName. Like
	// Shards it is pinned in catalog-meta.json once recorded, and the
	// recorded value wins on reopen; metas from before the codec
	// registry adopt the requested format on their first reopen. The
	// read path is self-describing (it loads whichever snapshot file
	// exists), so repinning via a fresh directory converts state on the
	// next Snapshot().
	SnapshotFormat string
}

// Open loads (or creates) a durable catalog in dir. The registry seeds
// the type hierarchy for *new* catalogs; reopened catalogs restore
// their persisted registry and merge the seed into it.
func Open(dir string, seed *dtype.Registry, opts Options) (*Catalog, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("catalog: open: %w", err)
	}

	// Resolve the layout pins: the directory's recorded shard count and
	// snapshot format win, a pre-sharding directory (data but no meta)
	// is single-shard, and a fresh directory records what was requested.
	format, err := normalizeSnapshotFormat(opts.SnapshotFormat)
	if err != nil {
		return nil, err
	}
	shards := normalizeShards(opts.Shards)
	metaPath := filepath.Join(dir, metaFile)
	if data, err := os.ReadFile(metaPath); err == nil {
		var meta catalogMeta
		if err := json.Unmarshal(data, &meta); err != nil {
			return nil, fmt.Errorf("catalog: meta %s: %w", metaPath, err)
		}
		shards = normalizeShards(meta.Shards)
		if meta.SnapshotFormat != "" {
			if format, err = normalizeSnapshotFormat(meta.SnapshotFormat); err != nil {
				return nil, err
			}
		} else {
			// Pre-codec meta: adopt the requested format and pin it.
			if err := writeMeta(dir, catalogMeta{Shards: shards, SnapshotFormat: format}); err != nil {
				return nil, err
			}
		}
	} else if errors.Is(err, os.ErrNotExist) {
		if _, serr := os.Stat(filepath.Join(dir, walFile)); serr == nil {
			shards = 1
		} else if _, serr := os.Stat(filepath.Join(dir, snapshotFile)); serr == nil {
			shards = 1
		}
		if err := writeMeta(dir, catalogMeta{Shards: shards, SnapshotFormat: format}); err != nil {
			return nil, err
		}
	} else {
		return nil, fmt.Errorf("catalog: meta: %w", err)
	}

	c := NewSharded(dtype.NewRegistry(), shards)
	c.dir = dir
	c.snapFormat = format
	if seed != nil {
		if err := c.types.Merge(seed); err != nil {
			return nil, err
		}
	}

	if err := c.loadSnapshot(dir); err != nil {
		return nil, err
	}

	// Replay every shard's log. A record replays against the shard
	// layout that wrote it (meta pins the count), so each object lands
	// back on its home shard; only derivations can reference state in
	// *another* shard's log (their transformation), so unresolvable
	// ones are deferred until every log is in.
	var deferred []schema.Derivation
	for i := range c.shards {
		path := walPath(dir, i, shards)
		if f, err := os.Open(path); err == nil {
			err = c.replay(f, &deferred)
			f.Close()
			if err != nil {
				return nil, err
			}
		} else if !errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("catalog: wal: %w", err)
		}
	}
	if err := c.replayDeferred(deferred); err != nil {
		return nil, err
	}

	for i, s := range c.shards {
		f, err := os.OpenFile(walPath(dir, i, shards), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			c.Close() // the logs already opened
			return nil, fmt.Errorf("catalog: wal: %w", err)
		}
		com := newCommitter(f, opts.Sync)
		com.setShardMetrics(strconv.Itoa(i))
		s.wal = &wal{f: f, com: com}
	}
	// The logs may have just been created; writeMeta's directory sync
	// came before them.
	if err := syncDir(dir); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// Close flushes every shard's group committer (returning the first
// sticky failure), makes the logs durable, and closes them. The catalog
// remains usable in memory but further mutations are not persisted.
func (c *Catalog) Close() error {
	set := c.allSet()
	c.lockSet(set)
	defer c.unlockSet(set)
	var firstErr error
	for _, s := range c.shards {
		if s.wal == nil {
			continue
		}
		w := s.wal
		s.wal = nil
		if err := w.com.flush(); err != nil && firstErr == nil {
			firstErr = err
		}
		if w.com.fsync && firstErr == nil {
			// A clean shutdown must be as durable as every acknowledged
			// mutation: fsync before the descriptor goes away.
			if err := w.f.Sync(); err != nil {
				firstErr = fmt.Errorf("catalog: wal close sync: %w", err)
			}
		}
		if err := w.f.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// DurabilityErr reports the first shard WAL's sticky failure, if any:
// non-nil once a WAL write or fsync has failed, after which every
// further mutation on that shard is rejected. In-memory catalogs
// always return nil.
func (c *Catalog) DurabilityErr() error {
	for _, s := range c.shards {
		s.mu.RLock()
		var err error
		if s.wal != nil {
			err = s.wal.com.failure()
		}
		s.mu.RUnlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// logOp records one operation in the shard's WAL. Callers hold s.mu.
// The record is only enqueued here; Catalog.mutate waits for its batch
// off-lock.
func (s *cshard) logOp(op opKind, v any) error {
	if s.wal == nil {
		return nil
	}
	seq, err := s.wal.com.enqueue(op, v)
	if err != nil {
		return err
	}
	s.pendingSeq = seq
	return nil
}

// replay applies one shard log's records to the in-memory state. Only
// a truncated *final* line (torn write during a crash) is tolerated; a
// corrupt record followed by further records means the log itself is
// damaged, and silently dropping the tail would lose acknowledged
// state.
func (c *Catalog) replay(r io.Reader, deferred *[]schema.Derivation) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec walRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			badLine := lineNo
			for sc.Scan() {
				lineNo++
				if len(sc.Bytes()) != 0 {
					return fmt.Errorf("catalog: replay: corrupt record at line %d (%v) followed by %d more line(s)", badLine, err, lineNo-badLine)
				}
			}
			// Torn tail record: ignore it, the write was never acked.
			return sc.Err()
		}
		if err := c.apply(rec, deferred); err != nil {
			return fmt.Errorf("catalog: replay: %w", err)
		}
	}
	return sc.Err()
}

// replayDeferred retries derivations whose transformations lived in a
// shard log that had not been replayed yet when they were first seen.
// Rounds repeat until a round makes no progress; whatever remains
// cites a transformation that exists in no log, which is real
// corruption, not ordering.
func (c *Catalog) replayDeferred(deferred []schema.Derivation) error {
	for len(deferred) > 0 {
		var still []schema.Derivation
		var firstErr error
		for _, dv := range deferred {
			tr, err := c.shardOfTR(dv.TR).transformationLocked(dv.TR)
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("catalog: replay: derivation %s: %w", dv.ID, err)
				}
				still = append(still, dv)
				continue
			}
			c.indexDerivation(dv, tr)
		}
		if len(still) == len(deferred) {
			return firstErr
		}
		deferred = still
	}
	return nil
}

// apply replays one record directly onto the maps and indexes, without
// re-validation (records were validated before being logged) and
// without re-logging. Routing mirrors the original mutation: each
// record was logged to its object's home shard, and the put helpers
// route it back there.
func (c *Catalog) apply(rec walRecord, deferred *[]schema.Derivation) error {
	switch rec.Op {
	case opType:
		var t typeRecord
		if err := json.Unmarshal(rec.Data, &t); err != nil {
			return err
		}
		c.shards[0].ver++ // conformance answers change
		c.shards[0].noteJournal(c, jTypes, "", false)
		return c.types.Register(dtype.Dimension(t.Dim), t.Name, t.Parent)
	case opDataset:
		var ds schema.Dataset
		if err := json.Unmarshal(rec.Data, &ds); err != nil {
			return err
		}
		c.putDataset(ds)
	case opTransformation:
		var tr schema.Transformation
		if err := json.Unmarshal(rec.Data, &tr); err != nil {
			return err
		}
		c.putTransformation(tr)
	case opDerivation:
		var dv schema.Derivation
		if err := json.Unmarshal(rec.Data, &dv); err != nil {
			return err
		}
		tr, err := c.shardOfTR(dv.TR).transformationLocked(dv.TR)
		if err != nil {
			if deferred != nil {
				// The transformation may live in a log not yet replayed;
				// retry after all shards are in (replayDeferred).
				*deferred = append(*deferred, dv)
				return nil
			}
			return fmt.Errorf("derivation %s: %w", dv.ID, err)
		}
		c.indexDerivation(dv, tr)
	case opInvocation:
		var iv schema.Invocation
		if err := json.Unmarshal(rec.Data, &iv); err != nil {
			return err
		}
		c.putInvocation(iv)
	case opReplica:
		var r schema.Replica
		if err := json.Unmarshal(rec.Data, &r); err != nil {
			return err
		}
		// A re-logged replica (e.g. epoch re-stamp) updates in place.
		c.putReplica(r)
	case opRemoveReplica:
		var id string
		if err := json.Unmarshal(rec.Data, &id); err != nil {
			return err
		}
		c.dropReplica(id)
	case opCompat:
		var a schema.CompatibilityAssertion
		if err := json.Unmarshal(rec.Data, &a); err != nil {
			return err
		}
		c.shards[0].compat = append(c.shards[0].compat, a)
		c.shards[0].ver++
		c.shards[0].noteJournal(c, jCompat, "", false)
	default:
		return fmt.Errorf("unknown op %q", rec.Op)
	}
	return nil
}

// Export is the full-state serialization used for snapshots and for
// shipping catalog contents between services.
type Export struct {
	Types           *dtype.Registry                 `json:"types"`
	Datasets        []schema.Dataset                `json:"datasets,omitempty"`
	Transformations []schema.Transformation         `json:"transformations,omitempty"`
	Derivations     []schema.Derivation             `json:"derivations,omitempty"`
	Invocations     []schema.Invocation             `json:"invocations,omitempty"`
	Replicas        []schema.Replica                `json:"replicas,omitempty"`
	Compat          []schema.CompatibilityAssertion `json:"compat,omitempty"`
}

// Export captures the catalog's full state under every shard's read
// lock, merged with a deterministic sort, so the result is identical no
// matter how the objects were distributed.
func (c *Catalog) Export() Export {
	c.rlockAll()
	defer c.runlockAll()
	return c.exportLocked()
}

// Export serializes the view's full state.
func (v *View) Export() Export { return v.c.exportLocked() }

// Sort orders every object slice by its identity, the canonical order
// Export() itself produces. Callers assembling an Export by hand (e.g.
// a federation shard reconstructing member state from deltas) use it so
// downstream merges stay deterministic.
func (exp *Export) Sort() { sortExport(exp) }

func sortExport(exp *Export) {
	sort.Slice(exp.Datasets, func(i, j int) bool { return exp.Datasets[i].Name < exp.Datasets[j].Name })
	sort.Slice(exp.Transformations, func(i, j int) bool { return exp.Transformations[i].Ref() < exp.Transformations[j].Ref() })
	sort.Slice(exp.Derivations, func(i, j int) bool { return exp.Derivations[i].ID < exp.Derivations[j].ID })
	sort.Slice(exp.Invocations, func(i, j int) bool { return exp.Invocations[i].ID < exp.Invocations[j].ID })
	sort.Slice(exp.Replicas, func(i, j int) bool { return exp.Replicas[i].ID < exp.Replicas[j].ID })
}

// applyExport loads an export into an empty catalog. Transformations
// land before derivations, so cross-shard references resolve without
// deferral.
func (c *Catalog) applyExport(exp Export) error {
	if exp.Types != nil {
		if err := c.types.Merge(exp.Types); err != nil {
			return err
		}
		c.shards[0].ver++ // conformance answers change
		c.shards[0].noteJournal(c, jTypes, "", false)
	}
	for _, ds := range exp.Datasets {
		c.putDataset(ds)
	}
	for _, tr := range exp.Transformations {
		c.putTransformation(tr)
	}
	for _, dv := range exp.Derivations {
		tr, err := c.shardOfTR(dv.TR).transformationLocked(dv.TR)
		if err != nil {
			return fmt.Errorf("catalog: import derivation %s: %w", dv.ID, err)
		}
		c.indexDerivation(dv, tr)
	}
	for _, iv := range exp.Invocations {
		c.putInvocation(iv)
	}
	for _, r := range exp.Replicas {
		if _, ok := c.shardOf(r.Dataset).replicas[r.ID]; !ok {
			c.putReplica(r)
		}
	}
	if len(exp.Compat) > 0 {
		c.shards[0].compat = append(c.shards[0].compat, exp.Compat...)
		c.shards[0].ver++
		c.shards[0].noteJournal(c, jCompat, "", false)
	}
	return nil
}

// mergeTypes is the tolerant registry merge shared by ImportTolerant and
// ApplyDelta: best-effort, conflicting names keep their first parent.
// It runs under the mutation lock so the journal (and concurrent readers
// of the registry) see a consistent update.
func (c *Catalog) mergeTypes(reg *dtype.Registry) {
	_ = c.mutate(shardSet(0).with(0), func() error {
		_ = c.types.Merge(reg)
		c.shards[0].ver++ // conformance answers change
		c.shards[0].noteJournal(c, jTypes, "", false)
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

// Snapshot compacts the durable state: the full merged catalog is
// written to snapshot.json and every shard's WAL truncated, all under
// every shard's write lock so the snapshot is one consistent cut
// across shards. No-op for in-memory catalogs.
func (c *Catalog) Snapshot() error {
	set := c.allSet()
	c.lockSet(set)
	defer c.unlockSet(set)
	if c.shards[0].wal == nil {
		return nil
	}
	opSnapshot.Inc()
	defer metricSnapshot.ObserveSince(time.Now())
	exp := c.exportLocked()
	if err := c.writeSnapshotLocked(&exp); err != nil {
		return err
	}
	// Flush each committer (every shard lock is held, so no queue can
	// grow), then truncate the logs now that the snapshot covers them.
	for _, s := range c.shards {
		if s.wal == nil {
			continue
		}
		if err := s.wal.com.flush(); err != nil {
			return err
		}
		if err := s.wal.f.Truncate(0); err != nil {
			return err
		}
		if _, err := s.wal.f.Seek(0, io.SeekStart); err != nil {
			return err
		}
	}
	return nil
}

// exportLocked merges every shard's state into one sorted Export.
// Callers hold every shard's lock (read or write).
func (c *Catalog) exportLocked() Export {
	exp := Export{Types: c.types.Clone()}
	for _, st := range c.shards {
		for _, ds := range st.datasets {
			exp.Datasets = append(exp.Datasets, ds)
		}
		for _, tr := range st.transformations {
			exp.Transformations = append(exp.Transformations, tr)
		}
		for _, dv := range st.derivations {
			exp.Derivations = append(exp.Derivations, dv)
		}
		for _, iv := range st.invocations {
			exp.Invocations = append(exp.Invocations, iv)
		}
		for _, r := range st.replicas {
			exp.Replicas = append(exp.Replicas, r)
		}
	}
	exp.Compat = append([]schema.CompatibilityAssertion(nil), c.shards[0].compat...)
	sortExport(&exp)
	return exp
}
