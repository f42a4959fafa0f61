//go:build linux

package planner

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"chimera/internal/catalog"
	"chimera/internal/executor"
	"chimera/internal/schema"
)

// severFiles makes every write to a file this process holds open under
// dir fail, the way commit_test.go closes the WAL under a catalog: it
// puts a read-only /dev/null on the descriptor. (Closing the descriptor
// from outside the owning package would free its number for reuse.)
func severFiles(t *testing.T, dir string) {
	t.Helper()
	null, err := os.Open(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip("no /proc/self/fd:", err)
	}
	severed := 0
	for _, e := range fds {
		fd, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		target, err := os.Readlink(filepath.Join("/proc/self/fd", e.Name()))
		if err != nil || !strings.HasPrefix(target, dir+string(filepath.Separator)) {
			continue
		}
		if err := syscall.Dup3(int(null.Fd()), fd, 0); err != nil {
			t.Fatal(err)
		}
		severed++
	}
	if severed == 0 {
		t.Fatalf("the catalog holds no file open under %s", dir)
	}
}

// durableWorld is buildWorld on an fsync-on-commit catalog in a fresh
// directory, pinned to west so that every placement stages raw from
// east and CacheAtClient registers a replica at west.
func durableWorld(t *testing.T) (w *world, dir string) {
	t.Helper()
	dir = t.TempDir()
	cat, err := catalog.Open(dir, nil, catalog.Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cat.Close() })
	w = buildWorldOn(t, cat, map[string]string{ProfileHomeSites: "west"})
	w.p.Replication = CacheAtClient{}
	return w, dir
}

// TestReplicaDurabilityFailureKeepsAccounting is the regression test
// for noteAccess treating a lost WAL write as "replica not registered":
// the replica is applied in memory and the catalog serves it, so its
// storage must stay reserved, and the error must reach the run instead
// of being swallowed. Both ways an executor resolves a placement's
// waits must report it: inline when it has no recording pipeline, and
// through the pipeline (recording into a healthy catalog here, so that
// the planner's wait is the only failure).
func TestReplicaDurabilityFailureKeepsAccounting(t *testing.T) {
	for _, pipeline := range []bool{false, true} {
		w, dir := durableWorld(t)
		west, _ := w.cl.Grid.Site("west")
		ex := &executor.Executor{Driver: executor.NewSimDriver(w.cl), Assign: w.p.Assign}
		if pipeline {
			ex.Catalog = buildWorld(t, nil).cat
		}
		severFiles(t, dir)
		if _, err := ex.Run(w.g); !errors.Is(err, catalog.ErrDurability) {
			t.Fatalf("pipeline=%v: want ErrDurability from the run, got %v", pipeline, err)
		}
		if got := w.p.replicaSites("raw"); len(got) != 2 {
			t.Fatalf("pipeline=%v: the catalog should serve the applied replica: sites %v", pipeline, got)
		}
		if west.Storage.Used() != 8e6 {
			t.Fatalf("pipeline=%v: storage of a served replica un-accounted: used=%d", pipeline, west.Storage.Used())
		}
	}
}

// TestReplicaApplyErrors covers the two errors AddReplicaAsync returns
// at once. A refusal (here a taken ID) applies nothing: the reservation
// comes back and nothing waits. A poisoned log fails fast but, like a
// failed wait, after the apply: the reservation stays and the error is
// handed on as a wait.
func TestReplicaApplyErrors(t *testing.T) {
	w, dir := durableWorld(t)
	west, _ := w.cl.Grid.Site("west")
	taken := fmt.Sprintf("cache-raw-west-%d", w.p.repSeq+1)
	if err := w.cat.AddReplica(schema.Replica{ID: taken, Dataset: "raw", Site: "east", PFN: "/x", Size: 1}); err != nil {
		t.Fatal(err)
	}
	if waits := w.p.noteAccess("raw", "west", 8e6); len(waits) != 0 {
		t.Fatalf("a refused replica left %d waits", len(waits))
	}
	if got := w.p.replicaSites("raw"); west.Storage.Used() != 0 || len(got) != 1 {
		t.Fatalf("refused replica: used=%d sites=%v", west.Storage.Used(), got)
	}

	severFiles(t, dir)
	if err := w.cat.AddDataset(schema.Dataset{Name: "poison"}); !errors.Is(err, catalog.ErrDurability) {
		t.Fatalf("want ErrDurability from the severed log, got %v", err)
	}
	waits := w.p.noteAccess("raw", "west", 8e6)
	if len(waits) != 1 || !errors.Is(waits[0](), catalog.ErrDurability) {
		t.Fatalf("poisoned log: %d waits", len(waits))
	}
	if got := w.p.replicaSites("raw"); west.Storage.Used() != 8e6 || len(got) != 2 {
		t.Fatalf("poisoned log: used=%d sites=%v", west.Storage.Used(), got)
	}
}
