package catalog

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"chimera/internal/dtype"
	"chimera/internal/schema"
)

// The catalog keeps one copy of its state, so every read path — a View,
// the locked point reads, Export — must observe the same state at every
// moment. The tests here check that through randomized histories, a
// concurrent mutation storm (run under -race in CI) and crash-replay of
// the WAL; plus the acknowledgement guarantee: an acknowledged mutation is in the next
// View.

// requireReadPathsAgree asserts that a View and the locked point reads
// observe the same state right now: every object in the View's export
// reads back identically through the locked Catalog method for its
// kind, and the materialized and executed flags agree. Callers quiesce
// writers first; concurrent readers may keep running.
func requireReadPathsAgree(t *testing.T, c *Catalog) {
	t.Helper()
	v := c.View()
	exp := v.Export()
	materialized := make(map[string]bool, len(exp.Datasets))
	for _, ds := range exp.Datasets {
		materialized[ds.Name] = v.Materialized(ds.Name)
	}
	executed := make(map[string]bool, len(exp.Derivations))
	for _, dv := range exp.Derivations {
		executed[dv.ID] = v.HasInvocations(dv.ID)
	}
	v.Close()

	agree := func(kind, id string, viewed, locked any, err error) {
		t.Helper()
		if err != nil || !equalJSON(viewed, locked) {
			t.Fatalf("%s %q: View holds %+v, locked read returns %+v (%v)", kind, id, viewed, locked, err)
		}
	}
	replicas := make(map[string]schema.Replica, len(exp.Replicas))
	for _, ds := range exp.Datasets {
		got, err := c.Dataset(ds.Name)
		agree("dataset", ds.Name, ds, got, err)
		if c.Materialized(ds.Name) != materialized[ds.Name] {
			t.Fatalf("dataset %q: View and Catalog.Materialized disagree", ds.Name)
		}
		for _, r := range c.ReplicasOf(ds.Name) {
			replicas[r.ID] = r
		}
	}
	if len(replicas) != len(exp.Replicas) {
		t.Fatalf("View holds %d replicas, ReplicasOf returns %d", len(exp.Replicas), len(replicas))
	}
	for _, r := range exp.Replicas {
		agree("replica", r.ID, r, replicas[r.ID], nil)
	}
	for _, tr := range exp.Transformations {
		got, err := c.Transformation(tr.Ref())
		agree("transformation", tr.Ref(), tr, got, err)
	}
	for _, dv := range exp.Derivations {
		got, err := c.Derivation(dv.ID)
		agree("derivation", dv.ID, dv, got, err)
		if c.HasInvocations(dv.ID) != executed[dv.ID] {
			t.Fatalf("derivation %q: View and Catalog.HasInvocations disagree", dv.ID)
		}
	}
	for _, iv := range exp.Invocations {
		got, err := c.Invocation(iv.ID)
		agree("invocation", iv.ID, iv, got, err)
	}
}

// TestOneCopyReadPathsAgree pins "one copy: every read path sees the
// same state". On a durable Sync catalog a replica is applied and its
// durability wait held back: Catalog.Materialized and View.Materialized
// must agree on it before the wait is called.
func TestOneCopyReadPathsAgree(t *testing.T) {
	c, err := Open(t.TempDir(), nil, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.AddDataset(schema.Dataset{Name: "d"}); err != nil {
		t.Fatal(err)
	}
	wait, err := c.AddReplicaAsync(schema.Replica{ID: "r", Dataset: "d", Site: "s", PFN: "/d"})
	if err != nil {
		t.Fatal(err)
	}
	if wait == nil {
		t.Fatal("a durable catalog returned no durability wait")
	}
	v := c.View()
	viewed := v.Materialized("d")
	v.Close()
	if locked := c.Materialized("d"); !locked || viewed != locked {
		t.Fatalf("before the durability wait: Catalog.Materialized = %v, View.Materialized = %v; want both true", locked, viewed)
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}
}

// TestEpochMatchesLockedOracleRandomized replays randomized histories
// serially and requires a View and the locked point reads to agree at
// every checkpoint. The shards=N subtests name the histories they seed
// (NewSharded ignores the count).
func TestEpochMatchesLockedOracleRandomized(t *testing.T) {
	for _, n := range []int{1, 8} {
		for seed := int64(0); seed < 3; seed++ {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", n, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed*1117 + int64(n)))
				hist := randomHistory(rng, "ep-", 300, true)
				c := NewSharded(dtype.StandardRegistry(), n)
				for i, m := range hist {
					m(c)
					if i%60 == 0 {
						requireReadPathsAgree(t, c)
					}
				}
				requireReadPathsAgree(t, c)
			})
		}
	}
}

// TestEpochEquivalenceStorm is the -race storm: 8 writers mutate the
// catalog with disjoint commuting histories while 4 readers
// loop View + full Export, so writers keep waiting for open Views and
// new Views keep queueing behind waiting writers. A View's epoch key
// must not move while it is open; at barriers between history segments
// (writers quiescent, readers still running) a View and the locked
// reads must agree; and the final state must match a serial replay on
// a fresh catalog.
func TestEpochEquivalenceStorm(t *testing.T) {
	const writers, segments = 8, 4
	histories := make([][][]mutation, writers)
	for w := range histories {
		rng := rand.New(rand.NewSource(int64(w)*271 + 9))
		hist := randomHistory(rng, fmt.Sprintf("st%d-", w), 240, false)
		per := (len(hist) + segments - 1) / segments
		for i := 0; i < len(hist); i += per {
			end := i + per
			if end > len(hist) {
				end = len(hist)
			}
			histories[w] = append(histories[w], hist[i:end])
		}
	}

	c := New(dtype.StandardRegistry())
	stop := make(chan struct{})
	var readers sync.WaitGroup
	defer readers.Wait()
	defer close(stop)
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := c.View()
				key := v.EpochKey()
				v.Export()
				if got := v.EpochKey(); got != key {
					t.Errorf("epoch key moved from %s to %s while a View was open", key, got)
				}
				v.Close()
			}
		}()
	}

	for seg := 0; seg < segments; seg++ {
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			if seg >= len(histories[w]) {
				continue
			}
			wg.Add(1)
			go func(hist []mutation) {
				defer wg.Done()
				for _, m := range hist {
					m(c) // errors are part of the history
				}
			}(histories[w][seg])
		}
		wg.Wait()
		// Quiescent point: writers paused, readers still hammering.
		requireReadPathsAgree(t, c)
	}

	ref := New(dtype.StandardRegistry())
	for w := 0; w < writers; w++ {
		for _, seg := range histories[w] {
			for _, m := range seg {
				m(ref)
			}
		}
	}
	requireSameState(t, ref, c)
	if err := c.CheckIndexes(); err != nil {
		t.Fatal(err)
	}
}

// TestEpochCrashReplayPublishes reopens a durable catalog without Close
// (the crash case): the reopened catalog's View must equal the
// pre-crash state, and its read paths must agree.
func TestEpochCrashReplayPublishes(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, dtype.StandardRegistry(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	for _, m := range randomHistory(rng, "cp-", 250, true) {
		m(c)
	}

	c2, err := Open(dir, dtype.StandardRegistry(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	requireSameState(t, c, c2)
	requireReadPathsAgree(t, c2)
	c.Close()
}

// TestAckedWriteVisibleToNextView pins the acknowledgement guarantee:
// while a reader holds a View for ~50 ms, two mutations wait for it to
// close and return only once applied, so a View opened right after the
// second returns contains both.
func TestAckedWriteVisibleToNextView(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			c := New(nil)
			if durable {
				var err error
				if c, err = Open(t.TempDir(), nil, Options{}); err != nil {
					t.Fatal(err)
				}
				defer c.Close()
			}
			held := make(chan struct{})
			done := make(chan struct{})
			go func() {
				defer close(done)
				v := c.View()
				close(held)
				time.Sleep(50 * time.Millisecond)
				v.Close()
			}()
			<-held
			for _, name := range []string{"acked-1", "acked-2"} {
				if err := c.AddDataset(schema.Dataset{Name: name}); err != nil {
					t.Fatal(err)
				}
			}
			v := c.View()
			for _, name := range []string{"acked-1", "acked-2"} {
				if _, ok := v.Dataset(name); !ok {
					t.Errorf("%s acknowledged but missing from the next View", name)
				}
			}
			v.Close()
			<-done
		})
	}
}
