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

// The epoch read path's correctness argument mirrors the sharding one:
// the live write side, read under every shard's read lock
// (exportWriteSide), is the oracle, and at any quiescent point — no writers, every durability
// wait resolved — an epoch view must observe byte-identical state. The
// tests here drive that equivalence through randomized histories,
// concurrent mutation storms (run under -race in CI), crash-replay of
// the shard WALs, and both the 1-shard and 8-shard layouts; plus the
// headline property the design exists for: the hot read paths acquire
// zero shard locks.

// exportWriteSide serializes the live write side of every shard under
// rlockAll: the ordered snapshot the published epochs are held to.
func exportWriteSide(c *Catalog) Export {
	c.rlockAll()
	defer c.runlockAll()
	states := make([]*shardState, len(c.shards))
	for i, s := range c.shards {
		states[i] = s.shardState
	}
	return exportStates(c.types.Clone(), states)
}

// requireEpochMatchesLocked asserts the epoch view and the locked
// oracle export identical state right now. Callers quiesce writers
// first; concurrent readers may keep running.
func requireEpochMatchesLocked(t *testing.T, c *Catalog) {
	t.Helper()
	if err := c.CheckPublished(); err != nil {
		t.Fatal(err)
	}
	ev := c.View()
	epoch := ev.Export()
	ev.Close()
	locked := exportWriteSide(c)
	je, err := schema.CanonicalBytes(epoch)
	if err != nil {
		t.Fatal(err)
	}
	jl, err := schema.CanonicalBytes(locked)
	if err != nil {
		t.Fatal(err)
	}
	if string(je) != string(jl) {
		t.Fatalf("epoch view diverged from locked oracle:\n%s\n---\n%s", je, jl)
	}
}

// TestEpochMatchesLockedOracleRandomized replays randomized histories
// serially and requires epoch/locked equivalence at every checkpoint,
// on both the 1-shard degenerate layout and an 8-shard catalog.
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
						requireEpochMatchesLocked(t, c)
					}
				}
				requireEpochMatchesLocked(t, c)
			})
		}
	}
}

// stateCopies returns, per shard, the two shardStates it holds: the
// write side and the published epoch's state.
func stateCopies(c *Catalog) [][2]*shardState {
	out := make([][2]*shardState, len(c.shards))
	for i, s := range c.shards {
		s.mu.Lock()
		out[i] = [2]*shardState{s.shardState, s.pub.Load().state}
		s.mu.Unlock()
	}
	return out
}

// requireSameTwoCopies asserts every shard still holds exactly the two
// shardStates it started with, in either role: publication swaps the
// write side and the published state and never allocates a third.
func requireSameTwoCopies(t *testing.T, c *Catalog, want [][2]*shardState) {
	t.Helper()
	for i, got := range stateCopies(c) {
		w := want[i]
		if got[0] == got[1] || !(got == w || got == [2]*shardState{w[1], w[0]}) {
			t.Fatalf("shard %d holds states %p/%p, want the pair %p/%p", i, got[0], got[1], w[0], w[1])
		}
	}
}

// TestEpochEquivalenceStorm is the -race storm: 8 writers mutate an
// 8-shard catalog with disjoint commuting histories while lock-free
// readers continuously pin epochs and scan them, so publishers keep
// finding the epoch they retire still pinned and must wait for it to
// drain. At barriers between history segments (writers quiescent,
// readers still running) the published epochs must equal the locked
// oracle byte for byte, every shard must still hold exactly its two
// original states, and the final state must match a serial replay on
// the 1-shard oracle.
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

	c := NewSharded(dtype.StandardRegistry(), 8)
	copies := stateCopies(c)
	stop := make(chan struct{})
	var readers sync.WaitGroup
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
				// Touch state broadly enough that a recycled-too-early
				// state would trip the race detector.
				v.RangeDatasets(func(schema.Dataset) bool { return true })
				v.RangeDerivations(func(dv schema.Derivation) bool {
					v.HasInvocations(dv.ID)
					return true
				})
				v.Export()
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
		requireEpochMatchesLocked(t, c)
		requireSameTwoCopies(t, c, copies)
	}
	close(stop)
	readers.Wait()

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
// (the crash case) and requires the replayed state to be published:
// epoch views over the reopened catalog must equal both its locked
// oracle and the pre-crash catalog.
func TestEpochCrashReplayPublishes(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, dtype.StandardRegistry(), Options{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	for _, m := range randomHistory(rng, "cp-", 250, true) {
		m(c)
	}
	requireEpochMatchesLocked(t, c)

	c2, err := Open(dir, dtype.StandardRegistry(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	requireEpochMatchesLocked(t, c2)
	requireSameState(t, c, c2)
	for _, st := range c2.EpochStats() {
		if st.Pending != 0 {
			t.Fatalf("shard %d: %d unpublished mutations after replay", st.Shard, st.Pending)
		}
	}
	c.Close()
}

// TestReadPathLockFree is the lock-freedom assertion: the hot read
// paths — View open/scan/Close, Export, point reads, the executor's
// dedup probe — must acquire zero shard read locks, while the
// write-side oracle takes exactly one per shard (so the counter counts).
func TestReadPathLockFree(t *testing.T) {
	c := NewSharded(dtype.StandardRegistry(), 8)
	populate(t, c)
	var dvID string
	c.View().RangeDerivations(func(dv schema.Derivation) bool { dvID = dv.ID; return false })

	before := LockReadAcquisitions()
	v := c.View()
	v.RangeDatasets(func(schema.Dataset) bool { return true })
	if _, ok := v.Dataset("raw"); !ok {
		t.Fatal("raw missing")
	}
	v.Materialized("cooked")
	v.Export()
	v.Close()
	c.Export()
	if !c.ExecutedPublished(dvID) {
		t.Fatalf("derivation %s has an invocation; ExecutedPublished must see it", dvID)
	}
	if got := LockReadAcquisitions() - before; got != 0 {
		t.Fatalf("epoch read path acquired %d shard read locks, want 0", got)
	}

	exportWriteSide(c)
	if got := LockReadAcquisitions() - before; got != uint64(c.Shards()) {
		t.Fatalf("exportWriteSide acquired %d shard read locks, want %d", got, c.Shards())
	}
}

// TestAckedWriteVisibleToNextView pins the acknowledgement guarantee:
// while a reader holds the published epoch for ~50 ms, two mutations
// on the same shard still return only once they are published, so a
// View opened right after the second returns contains both — and the
// publisher's wait for the pinned epoch shows up in
// vdc_catalog_publish_wait_seconds.
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
			waits := metricPublishWait.Count()
			pinned := make(chan struct{})
			done := make(chan struct{})
			go func() {
				defer close(done)
				v := c.View()
				close(pinned)
				time.Sleep(50 * time.Millisecond)
				v.Close()
			}()
			<-pinned
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
			if metricPublishWait.Count() == waits {
				t.Error("publication retired a pinned epoch without recording a wait")
			}
		})
	}
}
