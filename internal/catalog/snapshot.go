package catalog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"

	"chimera/internal/codec"
)

// The snapshot. snapshot.bin holds the state as of the last
// Snapshot(): a binary/v1 snapshot followed by an 8-byte trailer that
// checks it the way a frame checks a log record (frame.go):
//
//	codec bytes | crc32c(codec bytes), 4 bytes little-endian | "VDGC"
//
// The codec bytes end in the codec's own magic, "VDGE", two bits away
// from "VDGC": a flipped bit in the trailer's magic leaves a file that
// ends in neither, which the codec refuses, and a flipped bit anywhere
// else fails the CRC. A file without the trailer was written before it
// existed; Open refuses it, as it refuses every file of an earlier
// layout (refuseLegacy), and `chimera migrate` rewrites it.

const (
	snapshotFile   = "snapshot.bin"
	snapMagic      = "VDGC"
	snapTrailerLen = frameCRCLen + len(snapMagic)
)

// refuseLegacy fails, with one directory read, if dir holds a file
// only an earlier layout wrote: catalog-meta.json, snapshot.json,
// wal.jsonl or a shard log wal-<i>.jsonl. (loadSnapshot refuses an
// untrailed snapshot.bin.)
func refuseLegacy(dir string) error {
	entries, err := os.ReadDir(dir)
	for _, e := range entries {
		if n := e.Name(); n == "catalog-meta.json" || n == "snapshot.json" || n == "wal.jsonl" ||
			strings.HasPrefix(n, "wal-") && strings.HasSuffix(n, ".jsonl") {
			return errLegacy(dir, n)
		}
	}
	if err != nil {
		return fmt.Errorf("catalog: open: %w", err)
	}
	return nil
}

// errLegacy is Open's refusal of a directory holding file, which only
// an earlier layout wrote, naming the command that converts it.
func errLegacy(dir, file string) error {
	return fmt.Errorf("catalog: %s holds %s, from a layout this build does not open: run `chimera migrate -dir %s` to convert it", dir, file, dir)
}

// syncDir fsyncs a directory so a just-created (or renamed) entry
// survives a crash. A variable so tests can observe the state each
// directory sync makes durable.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("catalog: dir open: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("catalog: dir sync: %w", err)
	}
	return nil
}

// loadSnapshot restores the directory's snapshot, if it has one. The
// file is memory-mapped and decoded lazily section by section
// (codec.DecodeSnapshot copies everything it keeps), then unmapped
// before returning — cold-start I/O streams straight out of the page
// cache with no intermediate heap copy of the file.
func (c *Catalog) loadSnapshot() error {
	path := filepath.Join(c.dir, snapshotFile)
	data, done, err := mapFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("catalog: snapshot: %w", err)
	}
	body, err := snapshotBody(data)
	var exp *Export
	if err == nil {
		exp, err = codec.DecodeSnapshot(body)
	}
	done() // decoded values own their memory; unmap immediately
	if errors.Is(err, errNoTrailer) {
		return errLegacy(c.dir, snapshotFile+" without its checksum trailer")
	}
	if err != nil {
		return fmt.Errorf("catalog: snapshot %s: %w", path, err)
	}
	return c.load(exp)
}

// errNoTrailer marks a snapshot file that does not end in the trailer.
var errNoTrailer = errors.New("no checksum trailer")

// snapshotBody checks a snapshot file's trailer and returns the codec
// bytes it covers.
func snapshotBody(data []byte) ([]byte, error) {
	n := len(data) - snapTrailerLen
	if n < 0 || string(data[n+frameCRCLen:]) != snapMagic {
		return nil, errNoTrailer
	}
	if crc32.Checksum(data[:n], castagnoli) != binary.LittleEndian.Uint32(data[n:]) {
		return nil, errFrameCRC
	}
	return data[:n], nil
}

// writeSnapshotLocked atomically replaces the snapshot with exp.
// Callers hold the write lock.
func (c *Catalog) writeSnapshotLocked(exp *Export) error {
	var buf bytes.Buffer
	if err := codec.EncodeSnapshot(&buf, exp); err != nil {
		return err
	}
	data := binary.LittleEndian.AppendUint32(buf.Bytes(), crc32.Checksum(buf.Bytes(), castagnoli))
	data = append(data, snapMagic...)
	tmp := filepath.Join(c.dir, snapshotFile+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(c.dir, snapshotFile)); err != nil {
		return err
	}
	// The rename must be durable before Snapshot truncates the logs: a
	// crash that kept the truncation but lost the rename would drop
	// every record since the previous snapshot.
	return syncDir(c.dir)
}
