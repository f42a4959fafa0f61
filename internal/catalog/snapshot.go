package catalog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

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
// else fails the CRC. A file without the trailer, written before it
// existed, is handed to the codec unchecked. Directories still holding
// a JSON snapshot.json load it once (legacy.go); the next Snapshot()
// replaces it.

const (
	snapshotFile   = "snapshot.bin"
	snapMagic      = "VDGC"
	snapTrailerLen = frameCRCLen + len(snapMagic)
)

// snapCodec encodes and decodes snapshot.bin.
var snapCodec, _ = codec.Lookup(codec.BinaryName)

// CodecPayload reinterprets an Export as the codec-neutral container
// (shared by the vds server and client wire paths).
func (exp *Export) CodecPayload() *codec.Payload { return exportPayload(exp) }

// ExportFromCodec is the inverse of CodecPayload.
func ExportFromCodec(p *codec.Payload) Export { return payloadExport(p) }

// exportPayload reinterprets an Export as the codec-neutral container.
// The two structs are field-for-field identical, so this moves slice
// headers, not records.
func exportPayload(exp *Export) *codec.Payload {
	return &codec.Payload{
		Types:           exp.Types,
		Datasets:        exp.Datasets,
		Transformations: exp.Transformations,
		Derivations:     exp.Derivations,
		Invocations:     exp.Invocations,
		Replicas:        exp.Replicas,
		Compat:          exp.Compat,
	}
}

func payloadExport(p *codec.Payload) Export {
	return Export{
		Types:           p.Types,
		Datasets:        p.Datasets,
		Transformations: p.Transformations,
		Derivations:     p.Derivations,
		Invocations:     p.Invocations,
		Replicas:        p.Replicas,
		Compat:          p.Compat,
	}
}

// CodecDelta reinterprets a journal delta as the codec-neutral wire
// container (shared by the vds server and client).
func (d *Delta) CodecDelta() *codec.Delta {
	cd := &codec.Delta{
		Instance: d.Instance,
		Since:    d.Since,
		Seq:      d.Seq,
		Full:     d.Full,
		Payload:  *exportPayload(&d.Export),
	}
	if len(d.Tombstones) > 0 {
		cd.Tombstones = make([]codec.Tombstone, len(d.Tombstones))
		for i, t := range d.Tombstones {
			cd.Tombstones[i] = codec.Tombstone(t)
		}
	}
	return cd
}

// DeltaFromCodec is the inverse of CodecDelta.
func DeltaFromCodec(cd *codec.Delta) Delta {
	d := Delta{
		Instance: cd.Instance,
		Since:    cd.Since,
		Seq:      cd.Seq,
		Full:     cd.Full,
		Export:   payloadExport(&cd.Payload),
	}
	if len(cd.Tombstones) > 0 {
		d.Tombstones = make([]Tombstone, len(cd.Tombstones))
		for i, t := range cd.Tombstones {
			d.Tombstones[i] = Tombstone(t)
		}
	}
	return d
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
		return c.loadJSONSnapshot()
	}
	if err != nil {
		return fmt.Errorf("catalog: snapshot: %w", err)
	}
	body, err := snapshotBody(data)
	var p *codec.Payload
	if err == nil {
		p, err = snapCodec.DecodeSnapshot(body)
	}
	done() // decoded values own their memory; unmap immediately
	if err != nil {
		return fmt.Errorf("catalog: snapshot %s: %w", path, err)
	}
	return c.applyExport(payloadExport(p))
}

// snapshotBody checks a snapshot file's trailer and returns the codec
// bytes it covers; a file without one is returned whole.
func snapshotBody(data []byte) ([]byte, error) {
	n := len(data) - snapTrailerLen
	if n < 0 || string(data[n+frameCRCLen:]) != snapMagic {
		return data, nil
	}
	if crc32.Checksum(data[:n], castagnoli) != binary.LittleEndian.Uint32(data[n:]) {
		return nil, errFrameCRC
	}
	return data[:n], nil
}

// writeSnapshotLocked atomically replaces the snapshot with exp and
// removes a legacy snapshot.json, so the directory never holds two
// divergent snapshots. Callers hold the write lock (or own the catalog
// exclusively, as during Open).
func (c *Catalog) writeSnapshotLocked(exp *Export) error {
	var buf bytes.Buffer
	if err := snapCodec.EncodeSnapshot(&buf, exportPayload(exp)); err != nil {
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
	if err := os.Remove(filepath.Join(c.dir, legacySnapshotFile)); err != nil && !os.IsNotExist(err) {
		return err
	}
	// The rename must be durable before Snapshot truncates the logs: a
	// crash that kept the truncation but lost the rename would drop
	// every record since the previous snapshot.
	return syncDir(c.dir)
}
