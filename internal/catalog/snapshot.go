package catalog

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"chimera/internal/codec"
)

// Snapshot format selection. The codec name recorded in
// catalog-meta.json pins what Snapshot() writes: the recorded value
// wins on reopen. The read side is self-describing — it loads
// whichever snapshot file exists (snapshot.bin via the binary codec,
// snapshot.json via JSON), so a directory survives the transition in
// either direction: the first Snapshot() under a new pin writes the new
// file and removes the old.

const binSnapshotFile = "snapshot.bin"

// normalizeSnapshotFormat resolves "" to the binary codec and
// validates the name against the registry.
func normalizeSnapshotFormat(name string) (string, error) {
	if name == "" {
		return codec.BinaryName, nil
	}
	if _, err := codec.Lookup(name); err != nil {
		return "", fmt.Errorf("catalog: snapshot format: %w", err)
	}
	return name, nil
}

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

// writeMeta persists catalog-meta.json and fsyncs both the file and
// its directory: the meta pins the layout and snapshot format, and a
// crash that loses it (or tears it) after WAL records exist would
// reopen the directory under the wrong layout.
func writeMeta(dir string, meta catalogMeta) error {
	data, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("catalog: meta encode: %w", err)
	}
	path := filepath.Join(dir, metaFile)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("catalog: meta: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("catalog: meta write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("catalog: meta sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("catalog: meta close: %w", err)
	}
	return syncDir(dir)
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

// loadSnapshot restores whichever snapshot file the directory holds.
// The binary file is memory-mapped and decoded lazily section by
// section (codec.DecodeSnapshot copies everything it keeps), then
// unmapped before returning — cold-start I/O streams straight out of
// the page cache with no intermediate heap copy of the file.
func (c *Catalog) loadSnapshot(dir string) error {
	binPath := filepath.Join(dir, binSnapshotFile)
	if data, done, err := mapFile(binPath); err == nil {
		bin, lerr := codec.Lookup(codec.BinaryName)
		if lerr != nil {
			done()
			return lerr
		}
		p, derr := bin.DecodeSnapshot(data)
		done() // decoded values own their memory; unmap immediately
		if derr != nil {
			return fmt.Errorf("catalog: snapshot %s: %w", binPath, derr)
		}
		return c.applyExport(payloadExport(p))
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("catalog: snapshot: %w", err)
	}

	snapPath := filepath.Join(dir, snapshotFile)
	data, err := os.ReadFile(snapPath)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("catalog: snapshot: %w", err)
	}
	var exp Export
	if err := json.Unmarshal(data, &exp); err != nil {
		return fmt.Errorf("catalog: snapshot %s: %w", snapPath, err)
	}
	return c.applyExport(exp)
}

// writeSnapshotLocked encodes the export under the pinned format and
// atomically replaces the snapshot, removing the other format's file
// so the directory never holds two divergent snapshots. Callers hold
// the write lock (or own the catalog exclusively, as during Open).
func (c *Catalog) writeSnapshotLocked(exp *Export) error {
	cdc, err := codec.Lookup(c.snapFormat)
	if err != nil {
		return err
	}
	target, stale := snapshotFile, binSnapshotFile
	if c.snapFormat != codec.JSONName {
		target, stale = binSnapshotFile, snapshotFile
	}
	var buf bytes.Buffer
	if err := cdc.EncodeSnapshot(&buf, exportPayload(exp)); err != nil {
		return err
	}
	tmp := filepath.Join(c.dir, target+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf.Bytes()); err != nil {
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
	if err := os.Rename(tmp, filepath.Join(c.dir, target)); err != nil {
		return err
	}
	if err := os.Remove(filepath.Join(c.dir, stale)); err != nil && !os.IsNotExist(err) {
		return err
	}
	// The rename must be durable before Snapshot truncates the logs: a
	// crash that kept the truncation but lost the rename would drop
	// every record since the previous snapshot.
	return syncDir(c.dir)
}
