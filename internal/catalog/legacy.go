package catalog

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"chimera/internal/codec"
	"chimera/internal/schema"
)

// Legacy directories. Before the log spoke binary/v1 every record was
// one JSON line, {"op": …, "data": …}, in wal.jsonl; the catalog was
// once also partitioned into N shards (N <= 64), each with its own log
// wal-<i>.jsonl; and catalog-meta.json recorded N and pinned the
// snapshot format, json/v1 (snapshot.json) or binary/v1. Open reads
// such a directory once:
//
//  1. read the meta, if there is one, and refuse a shard count or
//     snapshot format this build cannot have written;
//  2. replay the snapshot, then wal-0 … wal-(N-1) in index order, then
//     wal.jsonl;
//  3. if there were logs, write snapshot.bin, remove snapshot.json and
//     the logs, and fsync the directory after each step;
//  4. remove the meta and fsync again.
//
// A crash at any step redoes the conversion on the next Open: until
// the logs are removed (and, for a sharded directory, the meta after
// them) they are still there, and replaying them over the new snapshot
// reaches the same state, as replaying a log over a snapshot that
// already covers it always does (Snapshot renames before it
// truncates). The per-shard logs carry no global order, so a directory
// whose logs hold a replica removed and re-registered under a dataset
// on another shard converts to what the sharded catalog itself
// reopened to. A json/v1 directory without logs keeps its
// snapshot.json until its next Snapshot(). The JSON readers live on
// only for these directories.

const (
	legacyWALFile      = "wal.jsonl"
	legacySnapshotFile = "snapshot.json"
	legacyMetaFile     = "catalog-meta.json"
)

// legacyMeta is catalog-meta.json.
type legacyMeta struct {
	// Shards is the shard count the sharded catalog recorded; 0 or 1
	// means one log.
	Shards int `json:"shards,omitempty"`
	// SnapshotFormat is the codec name the snapshot was pinned to;
	// empty in metas written before the format was pinned.
	SnapshotFormat string `json:"snapshot_format,omitempty"`
}

// maxLegacyShards is the largest shard count the sharded catalog could
// record; a meta outside [0, maxLegacyShards] is corrupt.
const maxLegacyShards = 64

// readLegacyMeta reads dir's meta (step 1). It reports whether there
// is one and the shard count to convert from: 0 for one log.
func readLegacyMeta(dir string) (shards int, found bool, err error) {
	path := filepath.Join(dir, legacyMetaFile)
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, fmt.Errorf("catalog: meta: %w", err)
	}
	var meta legacyMeta
	if err := json.Unmarshal(data, &meta); err != nil {
		return 0, false, fmt.Errorf("catalog: meta %s: %w", path, err)
	}
	if meta.Shards < 0 || meta.Shards > maxLegacyShards {
		return 0, false, fmt.Errorf("catalog: meta %s: shard count %d outside [0, %d]", path, meta.Shards, maxLegacyShards)
	}
	switch meta.SnapshotFormat {
	case "", codec.JSONName, codec.BinaryName:
	default:
		return 0, false, fmt.Errorf("catalog: meta %s: snapshot format %q is neither %s nor %s", path, meta.SnapshotFormat, codec.JSONName, codec.BinaryName)
	}
	if meta.Shards > 1 {
		shards = meta.Shards
	}
	return shards, true, nil
}

// loadJSONSnapshot restores a json/v1 snapshot.json, if the directory
// holds one.
func (c *Catalog) loadJSONSnapshot() error {
	path := filepath.Join(c.dir, legacySnapshotFile)
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("catalog: snapshot: %w", err)
	}
	var exp Export
	if err := json.Unmarshal(data, &exp); err != nil {
		return fmt.Errorf("catalog: snapshot %s: %w", path, err)
	}
	return c.applyExport(exp)
}

func legacyWALPath(dir string, i int) string {
	return filepath.Join(dir, "wal-"+strconv.Itoa(i)+".jsonl")
}

// checkShardLogs rejects a directory holding a per-shard log its meta
// does not account for (shards is 0 for the one-log layout): replaying
// only some of a sharded directory's logs would silently drop
// acknowledged records.
func checkShardLogs(dir string, shards int) error {
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.jsonl"))
	if err != nil {
		return fmt.Errorf("catalog: wal: %w", err)
	}
	for _, name := range names {
		idx := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(name), "wal-"), ".jsonl")
		if i, err := strconv.Atoi(idx); err == nil && strconv.Itoa(i) == idx && i >= shards {
			return fmt.Errorf("catalog: %s: shard log beyond the %d shard(s) catalog-meta.json records", name, shards)
		}
	}
	return nil
}

// convertLegacy folds a directory's JSON-lines logs into the snapshot
// and then removes its meta, if it had one (steps 2–4 above); shards
// is the meta's shard count, 0 for the one-log layout. The snapshot,
// if any, is already loaded.
func (c *Catalog) convertLegacy(shards int, meta bool) error {
	var logs []string
	for i := 0; i < shards; i++ {
		logs = append(logs, legacyWALPath(c.dir, i))
	}
	logs = append(logs, filepath.Join(c.dir, legacyWALFile))
	var deferred []schema.Derivation
	found := false
	for _, path := range logs {
		f, err := os.Open(path)
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return fmt.Errorf("catalog: wal: %w", err)
		}
		found = true
		err = replayJSONL(f, func(op opKind, v any) error { return c.apply(op, v, &deferred) })
		f.Close()
		if err != nil {
			return err
		}
	}
	if found {
		// Records in both formats have no order between them: only a
		// binary reopened by an older one leaves both.
		if fi, err := os.Stat(filepath.Join(c.dir, walFile)); err == nil && fi.Size() > 0 {
			return fmt.Errorf("catalog: %s holds both JSON-lines and binary logs", c.dir)
		}
		if err := c.replayDeferred(deferred); err != nil {
			return err
		}
		exp := c.exportLocked()
		if err := c.writeSnapshotLocked(&exp); err != nil {
			return err
		}
		for _, path := range logs {
			if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
				return fmt.Errorf("catalog: wal: %w", err)
			}
		}
		if err := syncDir(c.dir); err != nil {
			return err
		}
	}
	if !meta {
		return nil
	}
	// Only now: a sharded directory's logs are unreadable without the
	// shard count the meta records.
	if err := os.Remove(filepath.Join(c.dir, legacyMetaFile)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("catalog: meta: %w", err)
	}
	return syncDir(c.dir)
}

// legacyRecord is one JSON line of a legacy log.
type legacyRecord struct {
	Op   string          `json:"op"`
	Data json.RawMessage `json:"data"`
}

// legacyOps maps a legacy record's op name to its kind and the decoder
// of its data.
var legacyOps = map[string]struct {
	op     opKind
	decode func(data []byte) (any, error)
}{
	"type":           {opType, unmarshalAs[codec.TypeDef]},
	"dataset":        {opDataset, unmarshalAs[schema.Dataset]},
	"transformation": {opTransformation, unmarshalAs[schema.Transformation]},
	"derivation":     {opDerivation, unmarshalAs[schema.Derivation]},
	"invocation":     {opInvocation, unmarshalAs[schema.Invocation]},
	"replica":        {opReplica, unmarshalAs[schema.Replica]},
	"remove-replica": {opRemoveReplica, unmarshalAs[string]},
	"compat":         {opCompat, unmarshalAs[schema.CompatibilityAssertion]},
}

func unmarshalAs[T any](data []byte) (any, error) {
	var v T
	err := json.Unmarshal(data, &v)
	return v, err
}

// replayJSONL hands each record of a JSON-lines log to fn, in order.
// Lines may be of any length. Only a truncated *final* line (torn
// write during a crash) is tolerated: a line that does not parse,
// followed by further non-empty lines, means the log is damaged.
func replayJSONL(r io.Reader, fn func(op opKind, v any) error) error {
	br := bufio.NewReaderSize(r, 64*1024)
	var bad error
	lineNo, badLine := 0, 0
	for {
		line, err := br.ReadBytes('\n')
		if len(line) == 0 && err == io.EOF {
			return nil // a bad final line is a torn tail: never acked
		}
		if err != nil && err != io.EOF {
			return fmt.Errorf("catalog: replay: %w", err)
		}
		lineNo++
		line = bytes.TrimSuffix(bytes.TrimSuffix(line, []byte("\n")), []byte("\r"))
		if len(line) == 0 {
			continue
		}
		if bad != nil {
			return fmt.Errorf("catalog: replay: corrupt record at line %d (%v) followed by %d more line(s)", badLine, bad, lineNo-badLine)
		}
		var rec legacyRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			bad, badLine = err, lineNo
		} else if err := applyLegacy(rec, fn); err != nil {
			return fmt.Errorf("catalog: replay: %w", err)
		}
	}
}

// applyLegacy decodes one legacy record's data and hands it to fn.
func applyLegacy(rec legacyRecord, fn func(op opKind, v any) error) error {
	kind, ok := legacyOps[rec.Op]
	if !ok {
		return fmt.Errorf("unknown op %q", rec.Op)
	}
	v, err := kind.decode(rec.Data)
	if err != nil {
		return err
	}
	return fn(kind.op, v)
}

// replayDeferred retries derivations whose transformations lived in a
// shard log that had not been replayed yet when they were first seen.
// Only a derivation's own log is ordered before it, so its
// transformation may sit in a higher-indexed one. Rounds repeat until a
// round makes no progress; whatever remains cites a transformation
// that exists in no log, which is real corruption, not ordering.
func (c *Catalog) replayDeferred(deferred []schema.Derivation) error {
	for len(deferred) > 0 {
		var still []schema.Derivation
		var firstErr error
		for _, dv := range deferred {
			tr, err := c.transformationLocked(dv.TR)
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
