package catalog

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// replayLog replays a log's bytes into a fresh in-memory catalog, the
// way Open replays the log on disk.
func replayLog(log []byte) (*Catalog, error) {
	c := New(nil)
	if err := c.replay(bytes.NewReader(log), nil); err != nil {
		return nil, err
	}
	return c, nil
}

// FuzzReplay feeds arbitrary bytes to WAL replay as the log: replay
// must fail or succeed, never panic, and whatever it accepts must leave
// the secondary indexes equal to a rebuild from the primary maps. Run
// `go test -fuzz FuzzReplay ./internal/catalog` for a longer campaign;
// `go test` exercises the seeds: a valid multi-op log, that log torn at
// every byte of its last record, and a mid-file bit flip followed by
// valid records (which must be rejected, not skipped).
func FuzzReplay(f *testing.F) {
	dir := f.TempDir()
	c, err := Open(dir, nil, Options{})
	if err != nil {
		f.Fatal(err)
	}
	populate(f, c)
	if err := c.Close(); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	last := bytes.LastIndexByte(valid[:len(valid)-1], '\n') + 1
	for i := last; i < len(valid); i++ {
		f.Add(valid[:i])
	}
	flipped := bytes.Clone(valid)
	flipped[bytes.IndexByte(valid, '\n')+1] ^= 0x01 // the second record's '{'
	if _, err := replayLog(flipped); err == nil {
		f.Fatal("a corrupt mid-file record followed by valid ones replayed without error")
	}
	f.Add(flipped)

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
