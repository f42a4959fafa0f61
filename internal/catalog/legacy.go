package catalog

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"chimera/internal/schema"
)

// Legacy sharded directories. The catalog was once partitioned into N
// shards (N <= 64), each with its own log wal-<i>.jsonl, and
// catalog-meta.json recorded N. Open converts such a directory once:
//
//  1. replay the snapshot, then wal-0 … wal-(N-1) in index order;
//  2. write a snapshot in the pinned format and fsync the directory;
//  3. remove the per-shard logs, rewrite the meta without a shard
//     count, and fsync again.
//
// A crash at any step redoes the conversion on the next Open: until the
// meta is rewritten it still records N, and replaying the surviving
// logs over the new snapshot reaches the same state, as replaying a log
// over a snapshot that already covers it always does (Snapshot renames
// before it truncates). The per-shard logs carry no global order, so a
// directory whose logs hold a replica removed and re-registered under a
// dataset on another shard converts to what the sharded catalog itself
// reopened to.

// maxLegacyShards is the largest shard count the sharded catalog could
// record; a meta outside [0, maxLegacyShards] is corrupt.
const maxLegacyShards = 64

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

// convertLegacy folds a legacy N-shard directory into the one-log
// layout (steps 1–3 above). The snapshot, if any, is already loaded.
func (c *Catalog) convertLegacy(shards int) error {
	var deferred []schema.Derivation
	for i := 0; i < shards; i++ {
		f, err := os.Open(legacyWALPath(c.dir, i))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return fmt.Errorf("catalog: wal: %w", err)
		}
		err = c.replay(f, &deferred)
		f.Close()
		if err != nil {
			return err
		}
	}
	if err := c.replayDeferred(deferred); err != nil {
		return err
	}
	exp := c.exportLocked()
	if err := c.writeSnapshotLocked(&exp); err != nil {
		return err
	}
	for i := 0; i < shards; i++ {
		if err := os.Remove(legacyWALPath(c.dir, i)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("catalog: wal: %w", err)
		}
	}
	return writeMeta(c.dir, catalogMeta{SnapshotFormat: c.snapFormat})
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
