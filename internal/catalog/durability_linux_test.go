//go:build linux

package catalog

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"

	"chimera/internal/schema"
)

// TestCommitSyncFailurePoisons fails a batch's fsync rather than its
// write: a writable /dev/null dup3'd onto the log's descriptor
// accepts the write(2) and rejects the fsync with EINVAL. Two replica
// registrations enqueue into one batch before either waits, so one wait
// leads the batch and the other follows it; both must get
// ErrDurability, the failure must be sticky, and the next mutation must
// fail fast.
func TestCommitSyncFailurePoisons(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, nil, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.AddDataset(schema.Dataset{Name: "ok"}); err != nil {
		t.Fatal(err)
	}
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	if err := syscall.Dup3(int(null.Fd()), int(c.wal.f.Fd()), 0); err != nil {
		t.Fatal(err)
	}

	batches0, records0 := WALBatchStats()
	var waits []func() error
	for _, id := range []string{"r-lead", "r-follow"} {
		wait, err := c.AddReplicaAsync(schema.Replica{ID: id, Dataset: "ok", Site: "anl", PFN: "/store/" + id})
		if err != nil {
			t.Fatal(err)
		}
		waits = append(waits, wait)
	}
	errs := make([]error, len(waits))
	var wg sync.WaitGroup
	for i, wait := range waits {
		wg.Add(1)
		go func(i int, wait func() error) {
			defer wg.Done()
			errs[i] = wait()
		}(i, wait)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, ErrDurability) {
			t.Errorf("waiter %d: want ErrDurability from the failed fsync, got %v", i, err)
		}
	}
	if batches, records := WALBatchStats(); batches-batches0 != 1 || records-records0 != 2 {
		t.Fatalf("%v records in %d batches, want both records in one batch", records-records0, batches-batches0)
	}
	if err := c.DurabilityErr(); !errors.Is(err, ErrDurability) {
		t.Fatalf("DurabilityErr: want the sticky ErrDurability, got %v", err)
	}
	if err := c.AddDataset(schema.Dataset{Name: "later"}); !errors.Is(err, ErrDurability) {
		t.Fatalf("mutation after a failed fsync must fail fast, got %v", err)
	}
}

// TestOpenClosesLogsOnFailure makes the log impossible to create (a
// symlink into a missing directory) and checks that the failed Open
// leaves no descriptor open in the directory.
func TestOpenClosesLogsOnFailure(t *testing.T) {
	dir := t.TempDir()
	if err := os.Symlink(filepath.Join(dir, "missing", "wal"), filepath.Join(dir, walFile)); err != nil {
		t.Fatal(err)
	}
	if c, err := Open(dir, nil, Options{}); err == nil {
		c.Close()
		t.Fatal("Open succeeded with an uncreatable log")
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip("no /proc/self/fd:", err)
	}
	for _, e := range fds {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name()))
		if err == nil && strings.HasPrefix(target, dir+string(filepath.Separator)) {
			t.Errorf("failed Open leaked descriptor %s on %s", e.Name(), target)
		}
	}
}
