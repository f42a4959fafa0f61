package query

import (
	"container/list"
	"hash/fnv"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"chimera/internal/catalog"
	"chimera/internal/obs"
	"chimera/internal/schema"
)

// Query result cache. Results are cached under the *normalized
// predicate plus the view's epoch key* (catalog.View.EpochKey): the
// catalog's mutation version advances on every applied closure, so a
// key can never serve stale results — any mutation anywhere in the
// catalog (type registrations included) moves the version and the
// next run of the same query misses to a fresh execution. Invalidation is
// therefore free: old entries are never wrong, merely unreachable, and
// the LRU bound reclaims them.
//
// The cache is sharded to keep the hot analyst path from serializing
// on one mutex; each shard is an independent LRU over its slice of the
// key space.

const cacheShardCount = 8

// DefaultPlanCacheCapacity bounds the total cached results unless
// SetPlanCacheCapacity overrides it.
const DefaultPlanCacheCapacity = 1024

var (
	metricPlanCacheHits = obs.Default.Counter("vdc_query_plan_cache_hits_total",
		"Query runs answered from the plan/result cache (predicate + epoch vector match).")
	metricPlanCacheMisses = obs.Default.Counter("vdc_query_plan_cache_misses_total",
		"Query runs that executed because no cache entry matched the predicate at the current epoch.")
	metricPlanCacheEvictions = obs.Default.Counter("vdc_query_plan_cache_evictions_total",
		"Cache entries evicted by the LRU bound (stale-epoch entries age out here).")

	queryRunsCached = metricQueryRuns.With("cached")
	querySecsCached = metricQuerySeconds.With("cached")
)

type cacheEntry struct {
	key string
	res Results
}

type cacheShard struct {
	mu sync.Mutex
	ll *list.List               // front = most recently used
	m  map[string]*list.Element // key -> element holding *cacheEntry
}

type resultCache struct {
	shards   [cacheShardCount]cacheShard
	perShard atomic.Int64 // capacity per shard; <= 0 disables the cache
}

var planCache = newResultCache(DefaultPlanCacheCapacity)

func newResultCache(total int) *resultCache {
	c := &resultCache{}
	for i := range c.shards {
		c.shards[i].ll = list.New()
		c.shards[i].m = make(map[string]*list.Element)
	}
	c.setCapacity(total)
	return c
}

func (c *resultCache) setCapacity(total int) {
	if total <= 0 {
		c.perShard.Store(0)
		for i := range c.shards {
			s := &c.shards[i]
			s.mu.Lock()
			s.ll.Init()
			s.m = make(map[string]*list.Element)
			s.mu.Unlock()
		}
		return
	}
	per := (total + cacheShardCount - 1) / cacheShardCount
	c.perShard.Store(int64(per))
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for s.ll.Len() > per {
			c.evictOldest(s)
		}
		s.mu.Unlock()
	}
}

func (c *resultCache) enabled() bool { return c.perShard.Load() > 0 }

func (c *resultCache) shardOf(key string) *cacheShard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return &c.shards[h.Sum32()%cacheShardCount]
}

// get returns a defensive copy of the cached results for key, if any.
func (c *resultCache) get(key string) (Results, bool) {
	s := c.shardOf(key)
	s.mu.Lock()
	el, ok := s.m[key]
	if !ok {
		s.mu.Unlock()
		return Results{}, false
	}
	s.ll.MoveToFront(el)
	res := el.Value.(*cacheEntry).res
	s.mu.Unlock()
	return cloneResults(res), true
}

// has reports whether key is cached, without touching recency
// (Explain's probe must not distort the LRU).
func (c *resultCache) has(key string) bool {
	s := c.shardOf(key)
	s.mu.Lock()
	_, ok := s.m[key]
	s.mu.Unlock()
	return ok
}

func (c *resultCache) put(key string, res Results) {
	per := int(c.perShard.Load())
	if per <= 0 {
		return
	}
	s := c.shardOf(key)
	s.mu.Lock()
	if el, ok := s.m[key]; ok {
		// A concurrent run of the same query at the same epoch raced us
		// here; both executed against identical snapshots, so the values
		// are interchangeable.
		s.ll.MoveToFront(el)
		el.Value.(*cacheEntry).res = res
		s.mu.Unlock()
		return
	}
	s.m[key] = s.ll.PushFront(&cacheEntry{key: key, res: res})
	for s.ll.Len() > per {
		c.evictOldest(s)
	}
	s.mu.Unlock()
}

// evictOldest drops the least-recently-used entry. Callers hold s.mu.
func (c *resultCache) evictOldest(s *cacheShard) {
	el := s.ll.Back()
	if el == nil {
		return
	}
	s.ll.Remove(el)
	delete(s.m, el.Value.(*cacheEntry).key)
	metricPlanCacheEvictions.Inc()
}

func (c *resultCache) len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}

// cacheKey is the cache identity of one query: object kind, the
// expression's canonical rendering, and the snapshot's epoch vector.
func cacheKey(kind Kind, e Expr, v *catalog.View) string {
	var b strings.Builder
	b.WriteString(strconv.Itoa(int(kind)))
	b.WriteByte('|')
	b.WriteString(e.String())
	b.WriteByte('|')
	b.WriteString(v.EpochKey())
	return b.String()
}

// cloneResults shallow-copies the result slices so cached storage is
// never aliased by callers (the object structs themselves are values).
func cloneResults(r Results) Results {
	return Results{
		Datasets:        append([]schema.Dataset(nil), r.Datasets...),
		Transformations: append([]schema.Transformation(nil), r.Transformations...),
		Derivations:     append([]schema.Derivation(nil), r.Derivations...),
	}
}

// SetPlanCacheCapacity bounds the total cached query results across the
// process; n <= 0 disables and clears the cache. The default is
// DefaultPlanCacheCapacity.
func SetPlanCacheCapacity(n int) { planCache.setCapacity(n) }

// CacheInfo is the cache readout /debug/vdc reports.
type CacheInfo struct {
	Capacity  int    `json:"capacity"`
	Size      int    `json:"size"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// CacheStats reports the plan/result cache's occupancy and cumulative
// hit/miss/eviction counters.
func CacheStats() CacheInfo {
	return CacheInfo{
		Capacity:  int(planCache.perShard.Load()) * cacheShardCount,
		Size:      planCache.len(),
		Hits:      metricPlanCacheHits.Value(),
		Misses:    metricPlanCacheMisses.Value(),
		Evictions: metricPlanCacheEvictions.Value(),
	}
}
