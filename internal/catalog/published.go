package catalog

import (
	"fmt"
	"math/bits"
	"reflect"
	"sync/atomic"
	"time"

	"chimera/internal/schema"
)

// Epoch publication: the lock-free read path.
//
// Each shard maintains *three* complete copies of its object state —
// maps, provenance adjacency, secondary indexes, compat assertions — in
// a triple-buffered arrangement:
//
//	write side       embedded in the cshard, mutated under the shard's
//	                 write lock exactly as before
//	published epoch  an immutable snapshot reachable through an atomic
//	                 pointer that readers pin with a refcount and read
//	                 with zero lock acquisitions
//	spare            the previously published snapshot, draining its
//	                 last readers, waiting to be recycled
//
// Mutations funnel through cshard.apply, which applies a deterministic
// closure to the write side and appends it to the shard's op log.
// Publication (publishLocked) rotates the buffers: the spare — once its
// readers have drained — is caught up by replaying the op log, the
// write side becomes the new published epoch, the old published epoch
// becomes the new spare, and the caught-up spare becomes the write
// side. The third buffer is what makes the publisher wait-free with
// respect to readers: if the spare is still pinned (a reader is mid-
// scan), publication simply *defers* — the mutation completes against
// the write side and a later trigger retries — instead of the writer
// spinning until every in-flight scan finishes. Readers never block
// writers; writers never block readers.
//
// Publication triggers, in order of preference:
//
//  1. Group-commit resolution: the mutation funnel defers publication
//     to the durability wait for group-committed shards, so a batch of
//     N writers pays one rotation, not N (amortized copy-on-write).
//  2. Inline, before the shard lock drops, for mutations that need no
//     durability wait — in-memory catalogs, failed mutations,
//     cross-shard adjacency updates with no WAL record.
//  3. Reader assist: acquire() sees the shard's dirty flag, TryLocks
//     the shard (never blocking), and publishes — this is what bounds
//     staleness after writes quiesce while a deferral was pending.
//
// The staleness bound of the published epoch is therefore one group
// commit under sustained ingest, widening to the duration of the
// longest concurrent reader while a rotation is deferred (see
// docs/PERF.md, "Concurrent read path").
//
// Reader protocol (acquire): load the pointer, increment the refcount,
// re-check the pointer. A reader only dereferences state after the
// re-check passes, so a stale refcount increment on a long-retired
// epoch is harmless — the re-check fails, the reader backs off and
// retries on the current epoch. The publisher treats the spare's
// refcount reaching zero as proof no reader will touch its state
// again, which holds because every successful acquire happens on the
// epoch that is current at re-check time.

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
	// publisher recycles the state as a write side only after the epoch
	// has been rotated out and this count has drained to zero.
	readers atomic.Int64
}

// sideState tracks the spare buffer: the previously published state,
// the op-log cursor it is caught up to, and the epoch whose readers
// must drain before the state can be recycled (nil for the initial
// never-published spare).
type sideState struct {
	state   *shardState
	applied uint64
	ep      *publishedEpoch
}

// acquire pins the shard's current published epoch for lock-free
// reading. Callers must release() it when done.
//
// If the shard has unpublished mutations (a rotation was deferred and
// no later write has retried it), the reader assists: a TryLock —
// never a blocking acquisition — publishes before pinning, so views
// opened after writes quiesce still observe them. The assist is gated
// on the spare buffer being drained (observed through spareEp, without
// the lock): while the spare is still pinned a rotation would defer
// anyway, so attempting one would burn an exclusive lock acquisition
// per reader for nothing — under a storm of concurrent readers that
// gate is the difference between a lock-free read path and readers
// serializing behind each other's futile assists.
func (s *cshard) acquire() *publishedEpoch {
	if s.dirty.Load() && s.spareDrained() && s.mu.TryLock() {
		s.publishLocked()
		s.mu.Unlock()
	}
	for {
		e := s.pub.Load()
		e.readers.Add(1)
		if s.pub.Load() == e {
			return e
		}
		// Lost the race with a publication: the epoch we pinned may
		// already be draining. Back off it and retry on the new one.
		e.readers.Add(-1)
	}
}

// release unpins an epoch acquired with acquire.
func (e *publishedEpoch) release() { e.readers.Add(-1) }

// spareDrained reports whether the spare buffer's last published epoch
// has no readers left — i.e. a rotation attempted now would not defer.
// spareEp mirrors s.spare.ep atomically so readers can check without
// the shard lock; nil means the spare was never published (always
// rotatable).
func (s *cshard) spareDrained() bool {
	sp := s.spareEp.Load()
	return sp == nil || sp.readers.Load() == 0
}

// apply runs one deterministic mutation closure against the shard's
// write side and appends it to the op log for replay onto the lagging
// buffers at later rotations. Every mutation of shard object state MUST
// go through here (or the buffers diverge); closures must be
// deterministic — capture values, not pointers into live state — so
// replay reproduces the write side exactly. Callers hold s.mu.
func (s *cshard) apply(op func(*shardState)) {
	op(s.shardState)
	s.ops = append(s.ops, op)
	s.ver++
	s.dirty.Store(true)
}

// publishLocked rotates the shard's buffers, exposing the write side's
// current state to lock-free readers. A no-op when nothing was applied
// since the last rotation; a *deferral* (also a no-op, retried by the
// next trigger) when the spare buffer is still pinned by readers — the
// one case where a writer would otherwise have to wait on a reader.
// Callers hold s.mu (write).
func (s *cshard) publishLocked() {
	cur := s.pub.Load()
	if s.ver == cur.ver {
		return // clean: published epoch already reflects the write side
	}
	sp := s.spare
	if sp.ep != nil && sp.ep.readers.Load() != 0 {
		return // defer: a reader is still scanning the spare
	}
	// Catch the spare up to the write side by replaying the op log from
	// its cursor, then rotate: write side -> published, published ->
	// spare (drains as its readers finish), caught-up spare -> write.
	for _, op := range s.ops[sp.applied-s.opBase:] {
		op(sp.state)
	}
	next := &publishedEpoch{state: s.shardState, seq: s.lastSeq, ver: s.ver}
	s.pub.Store(next)
	metricEpochSwaps.Inc()
	s.spare = &sideState{state: cur.state, applied: cur.ver, ep: cur}
	s.spareEp.Store(cur)
	s.shardState = sp.state
	// Drop the ops every remaining laggard (the new spare) has applied.
	n := copy(s.ops, s.ops[cur.ver-s.opBase:])
	for i := n; i < len(s.ops); i++ {
		s.ops[i] = nil // release closure captures
	}
	s.ops = s.ops[:n]
	s.opBase = cur.ver
	s.dirty.Store(false)
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
// staleness (bounded by one group commit) can only miss a dedup
// opportunity, never invent one.
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
	// published (staleness backlog: nonzero only between a mutation and
	// its group-commit resolution, or while a rotation is deferred).
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
// published epoch must be deeply equal to its write side and carry its
// exact cursor stamps. Deferred rotations are retried (readers may
// still be draining off a spare buffer when the caller quiesced) for up
// to two seconds before being reported. Test oracle, analogous to
// CheckIndexes.
func (c *Catalog) CheckPublished() error {
	for i, s := range c.shards {
		deadline := time.Now().Add(2 * time.Second)
		for {
			s.mu.Lock()
			s.publishLocked()
			e := s.pub.Load()
			clean := e.ver == s.ver && e.seq == s.lastSeq
			same := clean && reflect.DeepEqual(e.state, s.shardState)
			s.mu.Unlock()
			if clean {
				if !same {
					return fmt.Errorf("catalog: shard %d published epoch diverged from write side", i)
				}
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("catalog: shard %d rotation still deferred (readers pinning the spare buffer)", i)
			}
			time.Sleep(time.Millisecond)
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
