package catalog

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// replayLog replays a binary log's bytes into a fresh in-memory
// catalog, the way Open replays the log on disk.
func replayLog(log []byte) (*Catalog, error) {
	c := New(nil)
	if _, err := c.replay(log); err != nil {
		return nil, err
	}
	return c, nil
}

// frameEnds returns the offset just past each frame of a valid log.
func frameEnds(t testing.TB, log []byte) []int {
	t.Helper()
	var ends []int
	for off := 0; off < len(log); {
		_, end, err := frameAt(log, off)
		if err != nil {
			t.Fatalf("frame at byte %d: %v", off, err)
		}
		ends = append(ends, end)
		off = end
	}
	return ends
}

// FuzzReplay feeds arbitrary bytes to WAL replay as the log: replay
// must fail or succeed, never panic, and whatever it accepts must leave
// the secondary indexes equal to a rebuild from the primary maps. Run
// `go test -fuzz FuzzReplay ./internal/catalog` for a longer campaign;
// `go test` exercises the seeds: a valid multi-op log, that log torn at
// every byte of its last frame, and the log with one byte of its
// second frame flipped, at each byte in turn — a corrupt frame
// followed by valid ones, which must be rejected, not skipped.
func FuzzReplay(f *testing.F) {
	valid := readLog(f, populatedDir(f, nil))
	ends := frameEnds(f, valid)
	f.Add(valid)
	for i := ends[len(ends)-2]; i < len(valid); i++ {
		f.Add(valid[:i])
	}
	for i := ends[0]; i < ends[1]; i++ {
		flipped := bytes.Clone(valid)
		flipped[i] ^= 0x01
		if _, err := replayLog(flipped); err == nil {
			f.Fatalf("a frame corrupt at byte %d, followed by valid ones, replayed without error", i)
		}
		f.Add(flipped)
	}

	f.Fuzz(func(t *testing.T, log []byte) {
		c, err := replayLog(log)
		if err != nil {
			return // rejection is fine; panics are not
		}
		if err := c.CheckIndexes(); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzLoadSnapshot writes arbitrary bytes as a directory's snapshot.bin
// and opens it: Open must fail or give a catalog whose secondary
// indexes equal a rebuild from its primary maps, and never panic. Run
// `go test -fuzz FuzzLoadSnapshot ./internal/catalog` for a longer
// campaign; `go test` exercises the seeds: a valid multi-object
// snapshot with each dataset's createdBy stored (as written before
// snapshots dropped it, which Open still loads), the same snapshot
// without its checksum trailer (as written before the trailer existed,
// which Open refuses), then both again as Snapshot writes them now,
// and each of them with one byte flipped, at each byte in turn.
func FuzzLoadSnapshot(f *testing.F) {
	dir, _ := snapshotDir(f)
	current, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		f.Fatal(err)
	}
	withCreatedBy := snapshotWithCreatedBy(f, dir)
	for _, trailed := range [][]byte{withCreatedBy, current} {
		for _, snap := range [][]byte{trailed, trailed[:len(trailed)-snapTrailerLen]} {
			f.Add(snap)
			for i := range snap {
				flipped := bytes.Clone(snap)
				flipped[i] ^= 0x01
				f.Add(flipped)
			}
		}
	}

	f.Fuzz(func(t *testing.T, snap []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, snapshotFile), snap, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := Open(dir, nil, Options{})
		if err != nil {
			return // rejection is fine; panics are not
		}
		defer c.Close()
		if err := c.CheckIndexes(); err != nil {
			t.Fatal(err)
		}
	})
}

// snapshotWithCreatedBy opens dir, checks its catalog has a derived
// dataset, and returns its snapshot.bin as written before snapshots
// dropped createdBy: every dataset carries its producer link.
func snapshotWithCreatedBy(t testing.TB, dir string) []byte {
	t.Helper()
	scratch := t.TempDir()
	src, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(scratch, snapshotFile), src, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Open(scratch, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.mu.Lock()
	defer c.mu.Unlock()
	exp := c.exportLocked()
	derived := false
	for _, ds := range exp.Datasets {
		derived = derived || ds.CreatedBy != ""
	}
	if !derived {
		t.Fatal("the snapshot has no derived dataset")
	}
	if err := c.writeSnapshotLocked(&exp); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(scratch, snapshotFile))
	if err != nil {
		t.Fatal(err)
	}
	return data
}
