package catalog

import (
	"fmt"
	"math/bits"
	"reflect"
	"runtime"
	"sync/atomic"
	"time"

	"chimera/internal/schema"
)

// Epoch publication: the lock-free read path.
//
// Each shard keeps *two* complete copies of its object state — maps,
// provenance adjacency, secondary indexes, compat assertions:
//
//	write side       embedded in the cshard, mutated under the shard's
//	                 write lock
//	published epoch  an immutable snapshot reachable through an atomic
//	                 pointer that readers pin with a refcount and read
//	                 with zero lock acquisitions
//
// Mutations funnel through cshard.apply, which applies a deterministic
// closure to the write side and appends it to the shard's op log.
// Publication (publishLocked) swaps the published pointer to the write
// side, waits — still under the shard lock — until the retired epoch's
// last reader has released it, replays the op log onto the retired
// state, and makes that state the new write side. Writers never block
// readers. A writer waits only for Views that pinned the epoch it is
// retiring, so one wait lasts as long as the longest such View stays
// open — including any time its goroutine spends preempted — and every
// later writer on that shard queues behind it on the shard lock. A
// whole-catalog read (Export, Datasets, Derivations, Invocations) pins
// every shard for a full copy, so it can hold up publication on every
// shard at once. docs/PERF.md ("Concurrent read path") gives the
// measured waits.
//
// Publication triggers:
//
//  1. Group-commit resolution: the mutation funnel defers publication
//     to the durability wait for group-committed shards, so a batch of
//     N writers pays one swap, not N (amortized copy-on-write).
//  2. Inline, right after the mutation's shard set unlocks, for
//     mutations that need no durability wait — in-memory catalogs,
//     failed mutations, cross-shard adjacency updates with no WAL
//     record.
//
// Both go through publishSet, which holds one shard lock at a time, so
// a multi-shard mutation never waits on a pinned epoch while it holds
// its other shards. Both run before the mutation returns, so a View
// opened after a mutation is acknowledged contains it.
//
// The one rule this imposes: no goroutine may take a shard lock or
// mutate the catalog while it pins an epoch (holds an open View). The
// publisher holds the shard lock while it waits for that pin to drain,
// so a pinned reader blocking on the lock would deadlock both.
//
// Reader protocol (acquire): load the pointer, increment the refcount,
// re-check the pointer. A reader only dereferences state after the
// re-check passes, so a stale refcount increment on a retired epoch is
// harmless — the re-check fails, the reader backs off and retries on
// the current epoch. The publisher treats the retired epoch's refcount
// reaching zero as proof no reader will touch its state again, which
// holds because the pointer was swapped before the count was read.

// shardState is one complete copy of a shard's object state: everything
// a read needs, nothing a read mutates. Two instances exist per shard
// (write side + published epoch); all mutations go through deterministic
// closures applied to both sides via cshard.apply.
type shardState struct {
	datasets        map[string]schema.Dataset
	transformations map[string]schema.Transformation // key: canonical ref (homed by base)
	derivations     map[string]schema.Derivation     // key: ID
	invocations     map[string]schema.Invocation     // homed by iv.Derivation
	replicas        map[string]schema.Replica        // homed by r.Dataset
	compat          []schema.CompatibilityAssertion  // shard 0 only

	// Provenance indexes (keys homed on this shard).
	producerOf  map[string]string   // dataset -> producing derivation ID
	consumersOf map[string][]string // dataset -> derivation IDs reading it
	outputsOf   map[string][]string // derivation ID -> output dataset names
	inputsOf    map[string][]string // derivation ID -> input dataset names

	// Secondary indexes.
	replicasByDataset map[string][]string // dataset -> replica IDs
	invocationsByDV   map[string][]string // derivation ID -> invocation IDs
	versionsOf        map[string][]string // "ns::name" -> versions

	// Discovery indexes (index.go), maintained incrementally by the
	// put*/drop* closures every mutation path funnels through.
	idx indexes
}

func newShardState() *shardState {
	return &shardState{
		datasets:          make(map[string]schema.Dataset),
		transformations:   make(map[string]schema.Transformation),
		derivations:       make(map[string]schema.Derivation),
		invocations:       make(map[string]schema.Invocation),
		replicas:          make(map[string]schema.Replica),
		producerOf:        make(map[string]string),
		consumersOf:       make(map[string][]string),
		outputsOf:         make(map[string][]string),
		inputsOf:          make(map[string][]string),
		replicasByDataset: make(map[string][]string),
		invocationsByDV:   make(map[string][]string),
		versionsOf:        make(map[string][]string),
		idx:               newIndexes(),
	}
}

// objectCount is the state's total object population across the five
// classes.
func (st *shardState) objectCount() int {
	return len(st.datasets) + len(st.transformations) + len(st.derivations) +
		len(st.invocations) + len(st.replicas)
}

// publishedEpoch is one published shard snapshot: an immutable
// shardState plus the cursors it was stamped with at publication.
type publishedEpoch struct {
	state *shardState
	// seq is the shard's journal cursor at publication: the sequence of
	// the last journaled mutation visible in this epoch. Together with
	// the catalog's journal instance it forms the (instance, seq) stamp
	// delta-sync cursors are built from.
	seq uint64
	// ver is the shard's mutation version at publication: bumped on
	// *every* applied closure, including cross-shard adjacency updates
	// that write no journal entry, so it is the invalidation key the
	// query cache vectors over.
	ver uint64
	// readers counts in-flight lock-free readers pinning this epoch; the
	// publisher recycles the state as the write side only after the epoch
	// has been retired and this count has drained to zero.
	readers atomic.Int64
	// retired is set when a publication replaces this epoch. From then
	// on the release that takes readers to zero posts to drained, the
	// shard's one-slot wake-up channel the publisher blocks on.
	retired atomic.Bool
	drained chan struct{}
}

// acquire pins the shard's current published epoch for lock-free
// reading. Callers must release() it when done, and must not take a
// shard lock or mutate the catalog in between.
func (s *cshard) acquire() *publishedEpoch {
	for {
		e := s.pub.Load()
		e.readers.Add(1)
		if s.pub.Load() == e {
			return e
		}
		// Lost the race with a publication: the epoch we pinned may
		// already be draining. Back off it and retry on the new one.
		e.release()
	}
}

// release unpins an epoch acquired with acquire. The last reader of a
// retired epoch wakes the publisher waiting on it and yields its CPU:
// the wake-up only queues the publisher behind this goroutine, which
// holds on to the CPU until it blocks or is preempted, and every writer
// on the shard is queued behind the publisher. Over 10 interleaved
// collab_mix runs (2 vCPUs) the yield halved the mean publish wait,
// 0.35 → 0.16 ms, and cut waits over 1 ms from 1183 to 102.
func (e *publishedEpoch) release() {
	if e.readers.Add(-1) == 0 && e.retired.Load() {
		select {
		case e.drained <- struct{}{}:
			runtime.Gosched()
		default: // a wake-up is already posted
		}
	}
}

// apply runs one deterministic mutation closure against the shard's
// write side and appends it to the op log for replay onto the retired
// state at the next publication. Every mutation of shard object state
// MUST go through here (or the copies diverge); closures must be
// deterministic — capture values, not pointers into live state — so
// replay reproduces the write side exactly. Callers hold s.mu.
func (s *cshard) apply(op func(*shardState)) {
	op(s.shardState)
	s.ops = append(s.ops, op)
	s.ver++
}

// publishLocked exposes the write side's current state to lock-free
// readers: it swaps the published pointer to the write side, waits for
// the retired epoch's readers to drain, and recycles the retired state
// as the write side by replaying the op log onto it. A no-op when
// nothing was applied since the last publication. Callers hold s.mu
// (write).
func (s *cshard) publishLocked() {
	old := s.pub.Load()
	if s.ver == old.ver {
		return // clean: published epoch already reflects the write side
	}
	s.pub.Store(&publishedEpoch{state: s.shardState, seq: s.lastSeq, ver: s.ver, drained: old.drained})
	metricEpochSwaps.Inc()
	old.retired.Store(true)
	if old.readers.Load() != 0 {
		start := time.Now()
		for old.readers.Load() != 0 {
			<-old.drained // spurious wake-ups (stale tokens) just re-check
		}
		metricPublishWait.ObserveSince(start)
	}
	for i, op := range s.ops {
		op(old.state)
		s.ops[i] = nil // release closure captures
	}
	s.ops = s.ops[:0]
	s.shardState = old.state
}

// publishSet publishes every shard in set that has unpublished
// mutations, taking each shard's lock one at a time (publication is
// per-shard independent; no cross-shard order is required).
func (c *Catalog) publishSet(set shardSet) {
	for m := uint64(set); m != 0; m &= m - 1 {
		s := c.shards[bits.TrailingZeros64(m)]
		s.mu.Lock()
		s.publishLocked()
		s.mu.Unlock()
	}
}

// publishAll publishes every shard; used after bulk loads (WAL replay,
// snapshot import) to expose the loaded state in one swap per shard.
func (c *Catalog) publishAll() { c.publishSet(c.allSet()) }

// ExecutedPublished reports, from the published epoch and with zero
// lock acquisitions, whether the derivation has at least one recorded
// invocation. This is the executor's duplicate-derivation fast path:
// an invocation whose durability wait is still in flight may be
// missed, which can only miss a dedup opportunity, never invent one.
func (c *Catalog) ExecutedPublished(id string) bool {
	s := c.shardOf(id)
	e := s.acquire()
	ok := e.state.idx.executed.Has(id)
	e.release()
	return ok
}

// ShardEpochState reports one shard's publication cursors for
// /debug/vdc.
type ShardEpochState struct {
	Shard int `json:"shard"`
	// Seq is the published journal cursor; Ver the published mutation
	// version (Ver >= Seq-advances since Ver also counts non-journaled
	// adjacency updates).
	Seq uint64 `json:"seq"`
	Ver uint64 `json:"ver"`
	// Readers is the instantaneous count of in-flight lock-free readers
	// pinning the published epoch.
	Readers int64 `json:"readers"`
	// Pending counts mutations applied to the write side but not yet
	// published: nonzero only inside a mutation (until its group commit
	// resolves), never across an acknowledgement.
	Pending int `json:"pending"`
}

// EpochStats reports every shard's publication state.
func (c *Catalog) EpochStats() []ShardEpochState {
	out := make([]ShardEpochState, len(c.shards))
	for i, s := range c.shards {
		e := s.acquire()
		st := ShardEpochState{Shard: i, Seq: e.seq, Ver: e.ver, Readers: e.readers.Load()}
		e.release()
		s.mu.RLock()
		st.Pending = int(s.ver - e.ver)
		s.mu.RUnlock()
		out[i] = st
	}
	return out
}

// CheckPublished verifies the publication invariant: at a quiescent
// point (no unresolved durability waits, no writers), every shard's
// published epoch must be deeply equal to its write side, be a separate
// copy of it, and carry its exact cursor stamps. Test oracle, analogous
// to CheckIndexes.
func (c *Catalog) CheckPublished() error {
	for i, s := range c.shards {
		s.mu.Lock()
		s.publishLocked()
		e := s.pub.Load()
		var err error
		switch {
		case e.ver != s.ver || e.seq != s.lastSeq:
			err = fmt.Errorf("catalog: shard %d published cursors (ver %d, seq %d) behind write side (ver %d, seq %d)", i, e.ver, e.seq, s.ver, s.lastSeq)
		case e.state == s.shardState:
			err = fmt.Errorf("catalog: shard %d publishes its write side itself", i)
		case !reflect.DeepEqual(e.state, s.shardState):
			err = fmt.Errorf("catalog: shard %d published epoch diverged from write side", i)
		}
		s.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// lockReadAcquisitions counts shard read-lock acquisitions, so tests
// can assert the hot read paths (View, query.Run, Export, search) take
// zero shard locks. Not a metric: it exists for the lock-freedom
// assertion only.
var lockReadAcquisitions atomic.Uint64

// LockReadAcquisitions reports the process-wide count of shard
// read-lock acquisitions (all catalogs).
func LockReadAcquisitions() uint64 { return lockReadAcquisitions.Load() }

// rlock takes the shard's read lock, counting the acquisition for the
// lock-freedom assertion. Every read-path RLock must go through here.
func (s *cshard) rlock() {
	lockReadAcquisitions.Add(1)
	s.mu.RLock()
}

// runlock releases a read lock taken with rlock.
func (s *cshard) runlock() { s.mu.RUnlock() }
