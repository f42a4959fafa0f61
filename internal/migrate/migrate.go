// Package migrate is `chimera migrate -dir D`: it converts a catalog
// directory an earlier build wrote — a catalog-meta.json recording the
// former sharded catalog's shard count N <= 64, a json/v1 snapshot.json,
// a snapshot.bin without its CRC-32C trailer, JSON-lines logs (wal.jsonl,
// or wal-0 … wal-(N-1).jsonl) — to the one layout catalog.Open reads,
// snapshot.bin + wal.bin, using only the catalog's public API.
//
// Dir restores the base snapshot into a catalog in a scratch directory,
// folds the logs, in the order Open once replayed them, into one
// catalog.Delta (the last record for each object wins; a removal is a
// tombstone), applies it with ApplyDelta, which must skip nothing, and
// installs the catalog's Snapshot() as snapshot.bin. Each dataset's
// createdBy in the result is the derivation that outputs it, whatever
// the logged records said: the catalog links producers from its
// derivations alone. Then it removes the logs in replay order,
// snapshot.json, and the meta last (the shard logs cannot be read
// without its count), fsyncing the directory after each.
// Running Dir again repairs a crash at any step: until the rename the
// directory is as it was, and after it the logs left are a suffix of the
// replay order, whose last record for each object is the last overall.
// A non-empty wal.bin beside JSON-lines logs is refused, since the two
// have no order; without them it holds what followed the snapshot, and
// Open replays it over the new one.
package migrate

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"chimera/internal/catalog"
	"chimera/internal/codec"
	"chimera/internal/dtype"
	"chimera/internal/schema"
)

const (
	metaFile     = "catalog-meta.json"
	jsonSnapshot = "snapshot.json"
	jsonLog      = "wal.jsonl"
	snapshotFile = "snapshot.bin"
	walFile      = "wal.bin"
	snapMagic    = "VDGC" // ends a snapshot.bin that carries its trailer
	maxShards    = 64
)

// The file operations Dir makes in the catalog directory, as variables
// so a test can fail each in turn.
var (
	write    = func(f *os.File, b []byte) error { _, err := f.Write(b); return err }
	syncFile = (*os.File).Sync
	rename   = os.Rename
	remove   = os.Remove
	syncDir  = func(dir string) error {
		d, err := os.Open(dir)
		if err == nil {
			err = d.Sync()
			d.Close()
		}
		return err
	}
)

// Dir converts dir and reports whether it held anything to convert; a
// directory in the current layout is left untouched. seed is the
// registry the directory's catalog was opened with (catalog.Open): a
// logged dataset may carry a type only the seed defines.
func Dir(dir string, seed *dtype.Registry) (converted bool, err error) {
	defer func() {
		if err != nil {
			err = fmt.Errorf("migrate %s: %w", dir, err)
		}
	}()
	if _, err := os.Stat(dir); err != nil {
		return false, err
	}
	meta, err := readIfExists(filepath.Join(dir, metaFile))
	if err != nil {
		return false, err
	}
	logs, err := findLogs(dir, meta)
	if err != nil {
		return false, err
	}
	base := snapshotFile
	snap, err := readIfExists(filepath.Join(dir, base))
	trailed := bytes.HasSuffix(snap, []byte(snapMagic))
	_, jsonErr := os.Stat(filepath.Join(dir, jsonSnapshot))
	if err != nil || meta == nil && len(logs) == 0 && (snap == nil || trailed) && errors.Is(jsonErr, fs.ErrNotExist) {
		return false, err
	}
	if snap == nil {
		base = jsonSnapshot
		snap, err = readIfExists(filepath.Join(dir, base))
	}
	if snap != nil && !trailed {
		snap, err = addTrailer(base, snap)
	}
	if err != nil {
		return false, fmt.Errorf("%s: %w", base, err)
	}
	if snap, err = build(snap, logs, seed); err != nil {
		return false, err
	}
	if err := install(dir, snap); err != nil {
		return false, err
	}
	for _, path := range slices.Concat(logs, []string{filepath.Join(dir, jsonSnapshot), filepath.Join(dir, metaFile)}) {
		if err := remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return false, err
		}
		if err := syncDir(dir); err != nil {
			return false, err
		}
	}
	return true, nil
}

func readIfExists(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	return data, err
}

// findLogs checks the meta, if there is one, and returns the directory's
// JSON-lines logs in replay order. It refuses a shard count or snapshot
// format no build wrote, a shard log the meta does not account for, and
// a non-empty wal.bin beside the logs.
func findLogs(dir string, meta []byte) ([]string, error) {
	var m struct {
		Shards         int    `json:"shards"`
		SnapshotFormat string `json:"snapshot_format"`
	}
	if meta != nil {
		if err := json.Unmarshal(meta, &m); err != nil {
			return nil, fmt.Errorf("%s: %w", metaFile, err)
		}
		if m.Shards < 0 || m.Shards > maxShards {
			return nil, fmt.Errorf("%s: shard count %d outside [0, %d]", metaFile, m.Shards, maxShards)
		}
		if f := m.SnapshotFormat; f != "" && f != codec.JSONName && f != codec.BinaryName {
			return nil, fmt.Errorf("%s: snapshot format %q is neither %s nor %s", metaFile, f, codec.JSONName, codec.BinaryName)
		}
	}
	shards := 0 // a count of 0 or 1 means one log, wal.jsonl
	if m.Shards > 1 {
		shards = m.Shards
	}
	logs := make([]string, shards, shards+1)
	paths, err := filepath.Glob(filepath.Join(dir, "wal-*.jsonl"))
	for _, path := range paths {
		idx := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "wal-"), ".jsonl")
		i, err := strconv.Atoi(idx)
		if err != nil || strconv.Itoa(i) != idx || i >= shards {
			return nil, fmt.Errorf("%s: shard log beyond the %d shard(s) %s records", path, shards, metaFile)
		}
		logs[i] = path
	}
	if _, err := os.Stat(filepath.Join(dir, jsonLog)); err == nil {
		logs = append(logs, filepath.Join(dir, jsonLog))
	}
	logs = slices.DeleteFunc(logs, func(p string) bool { return p == "" })
	if fi, err := os.Stat(filepath.Join(dir, walFile)); err == nil && fi.Size() > 0 && len(logs) > 0 {
		return nil, fmt.Errorf("%s holds both JSON-lines logs and a non-empty %s", dir, walFile)
	}
	return logs, err
}

// addTrailer returns a base snapshot as the snapshot.bin Open loads:
// binary/v1 behind its checksum trailer (catalog/snapshot.go). Open
// loads a snapshot as it was written, where Import would check it anew
// against rules the state may predate.
func addTrailer(base string, snap []byte) ([]byte, error) {
	if base == jsonSnapshot {
		var exp catalog.Export
		var buf bytes.Buffer
		if err := json.Unmarshal(snap, &exp); err != nil {
			return nil, err
		}
		if err := codec.EncodeSnapshot(&buf, &exp); err != nil {
			return nil, err
		}
		snap = buf.Bytes()
	}
	snap = binary.LittleEndian.AppendUint32(slices.Clip(snap), crc32.Checksum(snap, crc32.MakeTable(crc32.Castagnoli)))
	return append(snap, snapMagic...), nil
}

// build opens a catalog in a scratch directory on the base snapshot
// (nil for none) and seed, applies the folded logs to it, and returns
// the bytes of the snapshot.bin its Snapshot() writes.
func build(snap []byte, logs []string, seed *dtype.Registry) ([]byte, error) {
	scratch, err := os.MkdirTemp("", "chimera-migrate-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	if snap != nil {
		if err := os.WriteFile(filepath.Join(scratch, snapshotFile), snap, 0o644); err != nil {
			return nil, err
		}
	}
	c, err := catalog.Open(scratch, seed, catalog.Options{})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	f := fold{types: c.Types().Clone(), last: map[string]any{}}
	for _, path := range logs {
		if err := f.readFile(path); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	if skipped := c.ApplyDelta(f.delta()); skipped > 0 {
		return nil, fmt.Errorf("%d logged record(s) do not apply to the snapshot", skipped)
	}
	if err := c.Snapshot(); err != nil {
		return nil, err
	}
	if err := c.Close(); err != nil {
		return nil, err
	}
	return os.ReadFile(filepath.Join(scratch, snapshotFile))
}

// install makes snap the directory's snapshot.bin.
func install(dir string, snap []byte) error {
	tmp := filepath.Join(dir, snapshotFile+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	err = write(f, snap)
	if err == nil {
		err = syncFile(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = rename(tmp, filepath.Join(dir, snapshotFile))
	}
	if err == nil {
		err = syncDir(dir)
	}
	return err
}

// fold keeps the last logged record of each object: its value under its
// identity or, for a replica whose last record removed it, its ID.
type fold struct {
	types  *dtype.Registry // the base's, which a logged type may extend
	last   map[string]any
	compat []schema.CompatibilityAssertion
}

// decoders decode a JSON-lines record's data by its op name.
var decoders = map[string]func(data []byte) (any, error){
	"type":           unmarshalAs[codec.TypeDef],
	"dataset":        unmarshalAs[schema.Dataset],
	"transformation": unmarshalAs[schema.Transformation],
	"derivation":     unmarshalAs[schema.Derivation],
	"invocation":     unmarshalAs[schema.Invocation],
	"replica":        unmarshalAs[schema.Replica],
	"remove-replica": unmarshalAs[string],
	"compat":         unmarshalAs[schema.CompatibilityAssertion],
}

func unmarshalAs[T any](data []byte) (any, error) {
	var v T
	err := json.Unmarshal(data, &v)
	return v, err
}

func (f *fold) readFile(path string) error {
	r, err := os.Open(path)
	if err != nil {
		return err
	}
	defer r.Close()
	return f.read(r)
}

// read folds one JSON-lines log.
func (f *fold) read(r io.Reader) error {
	return readLog(r, func(op string, data []byte) error {
		decode, ok := decoders[op]
		if !ok {
			return fmt.Errorf("unknown op %q", op)
		}
		v, err := decode(data)
		if err != nil {
			return err
		}
		switch v := v.(type) {
		case codec.TypeDef:
			return f.types.Register(dtype.Dimension(v.Dim), v.Name, v.Parent)
		case schema.CompatibilityAssertion:
			if !slices.Contains(f.compat, v) {
				f.compat = append(f.compat, v)
			}
		case schema.Dataset:
			f.last["dataset "+v.Name] = v
		case schema.Transformation:
			f.last["transformation "+v.Ref()] = v
		case schema.Derivation:
			f.last["derivation "+v.ID] = v
		case schema.Invocation:
			f.last["invocation "+v.ID] = v
		case schema.Replica:
			f.last["replica "+v.ID] = v
		case string:
			f.last["replica "+v] = v
		}
		return nil
	})
}

// delta returns the fold as one delta, in canonical order.
func (f *fold) delta() catalog.Delta {
	d := catalog.Delta{Export: catalog.Export{Types: f.types, Compat: f.compat}}
	e := &d.Export
	for _, v := range f.last {
		switch v := v.(type) {
		case schema.Dataset:
			e.Datasets = append(e.Datasets, v)
		case schema.Transformation:
			e.Transformations = append(e.Transformations, v)
		case schema.Derivation:
			e.Derivations = append(e.Derivations, v)
		case schema.Invocation:
			e.Invocations = append(e.Invocations, v)
		case schema.Replica:
			e.Replicas = append(e.Replicas, v)
		case string:
			d.Tombstones = append(d.Tombstones, catalog.Tombstone{Kind: "replica", ID: v})
		}
	}
	e.Sort()
	return d
}

// readLog hands each record of a JSON-lines log to fn, in order. Lines
// may be of any length. Only a truncated *final* line (a torn write
// during a crash) is tolerated: a line that does not parse, followed by
// further non-empty lines, means the log is damaged.
func readLog(r io.Reader, fn func(op string, data []byte) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), math.MaxInt)
	var bad error
	lineNo, badLine := 0, 0
	for sc.Scan() {
		if lineNo++; len(sc.Bytes()) == 0 {
			continue
		}
		if bad != nil {
			return fmt.Errorf("corrupt record at line %d (%v) followed by %d more line(s)", badLine, bad, lineNo-badLine)
		}
		var rec struct {
			Op   string          `json:"op"`
			Data json.RawMessage `json:"data"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			bad, badLine = err, lineNo
		} else if err := fn(rec.Op, rec.Data); err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
	}
	return sc.Err() // a bad final line is a torn tail: never acked
}
