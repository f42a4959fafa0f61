package catalog

import (
	"hash/fnv"
	"math/bits"
	"strconv"
	"sync"
	"time"

	"chimera/internal/obs"
	"chimera/internal/schema"
)

// Catalog sharding. The catalog is partitioned into N shards keyed by
// FNV-1a hash of the object's *home name*; each shard owns its own
// RWMutex, write-ahead log, change journal, and secondary indexes, so
// mutations on different shards proceed on different cores without
// touching a shared lock or serializing on a shared fsync.
//
// Homing rules (the routing function of the whole design):
//
//	dataset         -> hash(dataset name)
//	replica         -> hash(replica.Dataset)   (same shard as its dataset)
//	derivation      -> hash(derivation ID)
//	invocation      -> hash(invocation.Derivation) (same shard as its derivation)
//	transformation  -> hash(versionless "ns::name" base ref)
//	types, compat   -> shard 0
//
// Co-homing replicas with their dataset and invocations with their
// derivation keeps the hot production-ingest operations (AddReplica,
// AddInvocation, AddDataset) entirely single-shard: the validation
// read, the primary map write, every secondary-index update, the
// journal entry, and the WAL record all live behind one shard lock.
// Keyed adjacency maps follow their key: producerOf/consumersOf and
// replicasByDataset live on the dataset's shard, inputsOf/outputsOf and
// invocationsByDV on the derivation's shard, versionsOf on the
// transformation base's shard (which is why transformations are homed
// by base, not full ref: versionless resolution stays single-shard).
//
// Multi-shard mutations (AddDerivation spans the derivation's shard,
// the transformation's shard, and every input/output dataset's shard)
// write-lock their whole shard set in ascending shard order; ChangesSince
// and the administrative probes take every shard's read lock, also in
// ascending order. One global acquisition order makes deadlock
// impossible, and gives ordered-snapshot consistency: a reader holding
// all read locks can never observe a mutation M2 without also observing
// every mutation that happened-before M2 (see docs/PERF.md, "Catalog
// sharding"). A View (view.go) is exactly that ordered snapshot: it
// holds every shard's read lock until it is closed.
//
// Each shard keeps one copy of its object state, and every mutation
// applies to it once, under the shard's write lock. A writer therefore
// waits for the Views open on its shards to close, and a View opened
// while a writer waits queues behind it (Go's RWMutex admits no new
// reader past a waiting writer) — which is why no goroutine may take a
// shard lock while it holds an open View.
//
// Shards=1 degenerates to exactly the pre-sharding catalog — one lock,
// one WAL, one journal — and is kept as the equivalence oracle:
// shard_test.go replays randomized mutation histories against 1-shard
// and N-shard catalogs and requires identical exports.

// MaxShards bounds the shard count; shard sets are uint64 bitmasks.
const MaxShards = 64

// shardState is a shard's object state: everything a read needs,
// nothing a read mutates.
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
	// put*/drop* helpers every mutation path funnels through.
	idx indexes
}

func newShardState() shardState {
	return shardState{
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

// cshard is one catalog shard: its object state (embedded shardState,
// guarded by mu), the change journal, and the WAL.
type cshard struct {
	mu sync.RWMutex

	// Embedding keeps every mutation and read addressing fields directly
	// (s.datasets, s.idx, ...).
	shardState

	// ver counts every mutation applied to this shard, journaled or not
	// (cross-shard adjacency updates write no journal entry): it is the
	// per-shard component of View.EpochKey, the query cache's
	// invalidation key. Guarded by mu.
	ver uint64

	// Change journal (journal.go): the bounded tail of this shard's
	// mutations. Entries carry the catalog-wide sequence they were
	// assigned; within one shard entries are strictly seq-ascending.
	// trimmed is the highest sequence ever dropped from this shard's
	// journal: a delta request `since` is serviceable by this shard iff
	// since >= trimmed.
	journal []journalEntry
	trimmed uint64
	jwindow int

	wal *wal // nil for purely in-memory catalogs

	// pendingSeq is the group-commit sequence of the last WAL record
	// the current mutation enqueued on this shard's committer; the
	// mutation funnel collects and waits on it after releasing the
	// locks. Guarded by mu; always 0 between mutations.
	pendingSeq uint64

	// Per-shard observability, resolved once at construction.
	gObjects *obs.Gauge
	gJournal *obs.Gauge
}

func newCShard(index, window int) *cshard {
	label := strconv.Itoa(index)
	s := &cshard{
		shardState: newShardState(),
		jwindow:    window,
		gObjects:   metricShardObjects.With(label),
		gJournal:   metricShardJournal.With(label),
	}
	return s
}

// --- routing -----------------------------------------------------------

// shardIndex hashes a home name to a shard index with FNV-1a.
func (c *Catalog) shardIndex(name string) int {
	return HomeShard(name, len(c.shards))
}

// HomeShard reports the shard index (0..shards-1) a catalog with the
// given shard count homes an object name on. Exported so ingest
// pipelines can align their streams with shard placement without
// re-deriving the hash.
func HomeShard(name string, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(name))
	return int(h.Sum32() % uint32(shards))
}

// shardOf returns the shard that homes name.
func (c *Catalog) shardOf(name string) *cshard { return c.shards[c.shardIndex(name)] }

// trHome is the homing key of a transformation reference: the
// versionless base, so every version of ns::name (and the versionsOf
// entry that resolves among them) lives on one shard. An unparseable
// ref hashes as-is; lookups for it fail identically on every shard
// count.
func trHome(ref string) string {
	if ns, name, _, err := schema.ParseTRRef(ref); err == nil {
		return schema.FormatTRRef(ns, name, "")
	}
	return ref
}

// shardOfTR returns the shard homing a transformation reference.
func (c *Catalog) shardOfTR(ref string) *cshard { return c.shards[c.shardIndex(trHome(ref))] }

// --- shard sets --------------------------------------------------------

// shardSet is a bitmask of shard indexes (hence MaxShards = 64).
type shardSet uint64

func (s shardSet) with(i int) shardSet      { return s | 1<<uint(i) }
func (s shardSet) has(i int) bool           { return s&(1<<uint(i)) != 0 }
func (s shardSet) contains(o shardSet) bool { return s&o == o }

// keySet returns the shard set homing the given names.
func (c *Catalog) keySet(names ...string) shardSet {
	var set shardSet
	for _, n := range names {
		set = set.with(c.shardIndex(n))
	}
	return set
}

// allSet is the set of every shard.
func (c *Catalog) allSet() shardSet {
	if len(c.shards) == 64 {
		return ^shardSet(0)
	}
	return shardSet(1)<<uint(len(c.shards)) - 1
}

// lockSet write-locks every shard in set, in ascending index order (the
// one global order that makes multi-shard acquisition deadlock-free),
// and reports how long acquisition took — including any wait for open
// Views on those shards to close.
func (c *Catalog) lockSet(set shardSet) {
	start := time.Now()
	for m := uint64(set); m != 0; m &= m - 1 {
		c.shards[bits.TrailingZeros64(m)].mu.Lock()
	}
	metricShardLockWait.ObserveSince(start)
}

// unlockSet releases the write locks taken by lockSet.
func (c *Catalog) unlockSet(set shardSet) {
	for m := uint64(set); m != 0; m &= m - 1 {
		c.shards[bits.TrailingZeros64(m)].mu.Unlock()
	}
}

// rlockAll takes every shard's read lock in ascending order: the
// ordered snapshot underpinning View, ChangesSince and the
// administrative probes.
func (c *Catalog) rlockAll() {
	for _, s := range c.shards {
		s.mu.RLock()
	}
}

// runlockAll releases the read locks taken by rlockAll.
func (c *Catalog) runlockAll() {
	for _, s := range c.shards {
		s.mu.RUnlock()
	}
}

// Shards reports the catalog's shard count.
func (c *Catalog) Shards() int { return len(c.shards) }

// normalizeShards clamps a requested shard count to [1, MaxShards].
func normalizeShards(n int) int {
	if n <= 1 {
		return 1
	}
	if n > MaxShards {
		return MaxShards
	}
	return n
}
