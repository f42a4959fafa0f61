package query

import (
	"container/list"
	"strconv"
	"sync"
	"sync/atomic"

	"chimera/internal/catalog"
	"chimera/internal/obs"
	"chimera/internal/schema"
)

// Query result cache. Each catalog holds one resultCache in its
// View.Memo slot, built for the catalog's current journal sequence, so
// an entry is keyed on the object kind and canonical predicate alone:
// a hit is a prior run of the same query against identical state. The
// first query after a mutation installs a fresh cache and the old one,
// whose entries nothing could hit again, becomes garbage — invalidation
// costs nothing and holds no memory.
//
// Within one version the cache is an LRU bounded by
// SetPlanCacheCapacity. Recency order earns its list: evicting an
// arbitrary entry instead loses discover_wide a sixth of its hits
// (docs/PERF.md).
//
// An entry also remembers the reply bodies Reply has encoded from its
// results, one per media type, so a server answers a repeated search
// with the stored bytes: no copy of the results and no encode. The
// bodies of one version hold at most maxReplyMemoBytes between them;
// past that, replies are still served, encoded afresh each time.

// DefaultPlanCacheCapacity bounds each catalog's cached results unless
// SetPlanCacheCapacity overrides it.
const DefaultPlanCacheCapacity = 1024

var (
	metricPlanCacheHits = obs.Default.Counter("vdc_query_plan_cache_hits_total",
		"Query runs answered from the plan/result cache (same predicate at the same catalog version).")
	metricPlanCacheMisses = obs.Default.Counter("vdc_query_plan_cache_misses_total",
		"Query runs that executed because no cache entry matched the predicate at the current catalog version.")
	metricPlanCacheEvictions = obs.Default.Counter("vdc_query_plan_cache_evictions_total",
		"Cache entries evicted by the per-catalog LRU bound (entries of an older catalog version are dropped whole and not counted).")

	queryRunsCached = metricQueryRuns.With("cached")
	querySecsCached = metricQuerySeconds.With("cached")
)

// planCacheCap is the per-catalog entry bound; 0 disables the cache.
var planCacheCap atomic.Int64

func init() { planCacheCap.Store(DefaultPlanCacheCapacity) }

// maxReplyMemoBytes bounds the reply bodies one catalog version's cache
// holds.
const maxReplyMemoBytes = 64 << 20

type cacheEntry struct {
	key    string
	res    Results
	bodies []replyBody // replies encoded from res, one per media type
}

// replyBody is one encoded reply.
type replyBody struct {
	mediaType string
	body      []byte
}

// resultCache is one catalog version's LRU of query results.
type resultCache struct {
	mu        sync.Mutex
	ll        *list.List               // front = most recently used
	m         map[string]*list.Element // key -> element holding *cacheEntry
	bodyBytes int                      // the bytes of every entry's bodies
}

func newResultCache() any {
	return &resultCache{ll: list.New(), m: make(map[string]*list.Element)}
}

// cacheOf returns the result cache of v's catalog at v's state.
func cacheOf(v *catalog.View) *resultCache { return v.Memo(newResultCache).(*resultCache) }

// lookup returns the cached results for key — the entry's own,
// read-only — and the reply the entry holds in mediaType, if any.
func (c *resultCache) lookup(key, mediaType string) (res Results, body []byte, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return Results{}, nil, false
	}
	c.ll.MoveToFront(el)
	ent := el.Value.(*cacheEntry)
	for _, b := range ent.bodies {
		if b.mediaType == mediaType {
			body = b.body
		}
	}
	return ent.res, body, true
}

// putBody stores body as key's reply in mediaType, unless the entry is
// gone (evicted), holds one already, or the version's bodies would pass
// maxReplyMemoBytes.
func (c *resultCache) putBody(key, mediaType string, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok || c.bodyBytes+len(body) > maxReplyMemoBytes {
		return
	}
	ent := el.Value.(*cacheEntry)
	for _, b := range ent.bodies {
		if b.mediaType == mediaType {
			return
		}
	}
	ent.bodies = append(ent.bodies, replyBody{mediaType: mediaType, body: body})
	c.bodyBytes += len(body)
}

// has reports whether key is cached, without touching recency
// (Explain's probe must not distort the LRU).
func (c *resultCache) has(key string) bool {
	c.mu.Lock()
	_, ok := c.m[key]
	c.mu.Unlock()
	return ok
}

// put caches res, which from then on is read-only, under key.
func (c *resultCache) put(key string, res Results) {
	capacity := int(planCacheCap.Load())
	if capacity <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		// A concurrent run of the same query raced us here; both
		// executed against identical state, so the values are
		// interchangeable: keep the entry, and the bodies encoded from it.
		c.ll.MoveToFront(el)
		return
	}
	c.m[key] = c.ll.PushFront(&cacheEntry{key: key, res: res})
	for c.ll.Len() > capacity {
		el := c.ll.Back()
		c.ll.Remove(el)
		ent := el.Value.(*cacheEntry)
		delete(c.m, ent.key)
		for _, b := range ent.bodies {
			c.bodyBytes -= len(b.body)
		}
		metricPlanCacheEvictions.Inc()
	}
}

func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// cacheKey is the cache identity of one query within a catalog
// version: object kind and the expression's canonical rendering.
func cacheKey(kind Kind, e Expr) string {
	return strconv.Itoa(int(kind)) + "|" + e.String()
}

// cloneResults shallow-copies the result slices so cached storage is
// never aliased by Run's callers (the object structs themselves are
// values).
func cloneResults(r Results) Results {
	return Results{
		Datasets:        append([]schema.Dataset(nil), r.Datasets...),
		Transformations: append([]schema.Transformation(nil), r.Transformations...),
		Derivations:     append([]schema.Derivation(nil), r.Derivations...),
	}
}

// SetPlanCacheCapacity bounds the cached query results each catalog
// holds; n <= 0 disables the cache, so runs neither read nor fill it.
// The default is DefaultPlanCacheCapacity. A cache over a lowered bound
// shrinks at its next insertion, and every cache is dropped whole at
// its catalog's next mutation.
func SetPlanCacheCapacity(n int) { planCacheCap.Store(int64(max(n, 0))) }

func cacheEnabled() bool { return planCacheCap.Load() > 0 }

// CacheInfo is the process-wide cache readout: the per-catalog bound
// and cumulative counters over every catalog.
type CacheInfo struct {
	Capacity  int    `json:"capacity"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// CacheStats reports the per-catalog capacity and the cumulative
// hit/miss/eviction counters.
func CacheStats() CacheInfo {
	return CacheInfo{
		Capacity:  int(planCacheCap.Load()),
		Hits:      metricPlanCacheHits.Value(),
		Misses:    metricPlanCacheMisses.Value(),
		Evictions: metricPlanCacheEvictions.Value(),
	}
}

// CacheSize reports how many query results c's cache holds at c's
// current version.
func CacheSize(c *catalog.Catalog) int {
	v := c.View()
	defer v.Close()
	return cacheOf(v).len()
}
