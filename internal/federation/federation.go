// Package federation integrates virtual data catalog information from
// multiple services, as sketched in Figures 3 and 4 of the paper:
// federated indexes that answer discovery queries over many catalogs
// without touching each one per query, and distributed lineage that
// stitches provenance chains spanning personal, group and
// collaboration catalogs linked by vdp:// references.
package federation

import (
	"context"
	"sort"
	"sync"
	"time"

	"chimera/internal/catalog"
	"chimera/internal/dtype"
	"chimera/internal/obs"
	"chimera/internal/query"

	"chimera/internal/vds"
)

// Federation metrics: crawl activity and admission outcomes.
var (
	metricCrawls = obs.Default.Counter("vdc_federation_crawls_total",
		"Completed crawl passes across all indexes.")
	metricPasses = obs.Default.CounterVec("vdc_federation_passes_total",
		"Delta crawl passes by what they did to the shadow: unchanged (nothing to merge), fold (deltas applied in place, cost O(delta)) or rebuild (every shard re-imported, cost O(index)).", "kind")
	metricCrawlSeconds = obs.Default.Histogram("vdc_federation_crawl_seconds",
		"Wall-clock latency of one full crawl pass.", nil)
	metricMembers = obs.Default.CounterVec("vdc_federation_member_crawls_total",
		"Per-member crawl outcomes.", "outcome")
	memberOK       = metricMembers.With("ok")
	memberError    = metricMembers.With("error")
	metricAdmitted = obs.Default.Counter("vdc_federation_admitted_datasets_total",
		"Datasets admitted into federated indexes across crawls.")
	metricMemberSeconds = obs.Default.Histogram("vdc_federation_member_crawl_seconds",
		"Wall-clock latency of one member's delta fetch.", nil)
	metricDeltas = obs.Default.CounterVec("vdc_federation_member_deltas_total",
		"Delta-crawl responses by kind; unchanged/(full+delta+unchanged) is the hit ratio.", "kind")
	deltaFull        = metricDeltas.With("full")
	deltaIncremental = metricDeltas.With("delta")
	deltaUnchanged   = metricDeltas.With("unchanged")
	deltaError       = metricDeltas.With("error")
	metricBytes      = obs.Default.Counter("vdc_federation_bytes_total",
		"Encoded bytes transferred from members during delta crawls.")
	metricInflight = obs.Default.Gauge("vdc_federation_inflight_crawls",
		"Member fetches currently in flight across all indexes.")
	metricAdmitCache = obs.Default.CounterVec("vdc_federation_admit_cache_total",
		"Memoized admission-filter lookups during shadow rebuilds; hit means the shard reused its cached post-filter export.", "outcome")
	admitHit  = metricAdmitCache.With("hit")
	admitMiss = metricAdmitCache.With("miss")
)

// Delta-crawl tuning defaults.
const (
	// DefaultWorkers bounds concurrent member fetches per crawl pass.
	DefaultWorkers = 8
	// DefaultMemberTimeout bounds one member's fetch; a hung member
	// costs its shard one timeout, not the whole pass.
	DefaultMemberTimeout = 15 * time.Second
)

// Entry is one indexed object with its home authority.
type Entry struct {
	// Kind is "dataset", "transformation" or "derivation".
	Kind string
	// Name is the object's name in its home catalog.
	Name string
	// Authority operates the home catalog.
	Authority string
	// Ref is the vdp:// reference for retrieval.
	Ref string
}

// Index is a federated index over member catalogs. Each Crawl pulls
// member exports into a shadow catalog, against which discovery queries
// run locally; results carry home-authority attribution. Indexes are
// differentiated by scope and by an optional admission filter (e.g. an
// "official collaboration index" admitting only approved entries).
type Index struct {
	// Name labels the index (e.g. "collaboration-wide").
	Name string
	// Scope is free-form ("personal", "group", "collaboration").
	Scope string
	// Filter, when non-empty, admits only datasets matching this
	// discovery query (evaluated on the member's exported state).
	Filter string

	// MemberTimeout bounds one member's fetch in the delta crawl
	// (default DefaultMemberTimeout).
	MemberTimeout time.Duration

	mu      sync.RWMutex
	members map[string]*vds.Client
	shadow  *catalog.Catalog
	origin  map[string]string // kind/name -> authority
	crawls  int
	stale   map[string]error // per-member last crawl error

	// Delta-crawl state, owned by crawlMu: per-member shards and the
	// conditions under which the current shadow was built.
	crawlMu     sync.Mutex
	shards      map[string]*shard
	built       bool
	builtFilter string

	// shardSnap is the last crawl's per-member cursor snapshot and
	// lastPass what that pass did to the shadow, both published under
	// ix.mu so introspection never has to wait on a crawl in flight.
	shardSnap []ShardState
	lastPass  string
}

// NewIndex returns an empty index.
func NewIndex(name, scope string) *Index {
	return &Index{
		Name: name, Scope: scope,
		members: make(map[string]*vds.Client),
		shadow:  catalog.New(nil),
		origin:  make(map[string]string),
		stale:   make(map[string]error),
		shards:  make(map[string]*shard),
	}
}

// AddMember registers a member catalog under its authority name.
func (ix *Index) AddMember(authority string, client *vds.Client) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.members[authority] = client
}

// RemoveMember drops a member; its entries disappear at the next crawl.
func (ix *Index) RemoveMember(authority string) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	delete(ix.members, authority)
}

// Members lists member authorities, sorted.
func (ix *Index) Members() []string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	out := make([]string, 0, len(ix.members))
	for a := range ix.members {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// Crawls reports how many crawl passes have completed.
func (ix *Index) Crawls() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.crawls
}

// MemberError returns the error from the last crawl of a member, nil if
// it succeeded.
func (ix *Index) MemberError(authority string) error {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.stale[authority]
}

// Crawl refreshes the index from current member state. The default
// path is incremental and parallel: members are fetched concurrently
// by a bounded worker pool, each shipping only the changes since its
// shard's last sequence, and the changes are folded into the live
// shadow in place, so a pass costs what changed, not what is indexed.
// The shadow is rebuilt from the shards only when a fold cannot be
// proven equal to a rebuild: first contact, a member's full export,
// changed membership or filter, overlapping definitions (see fold). A
// member that errors is recorded in MemberError — its shard keeps
// serving the last good state — so one dead catalog does not take the
// federation down. Crawl passes on one index are serialized.
func (ix *Index) Crawl() error {
	return ix.CrawlContext(context.Background())
}

// CrawlContext is Crawl under a caller context. When the context
// carries a tracer, the pass records one causally-connected trace:
// a crawl root span, one fetch span per member (whose span context
// travels to the member as a traceparent header, parenting the remote
// server's spans), and apply and fold/rebuild spans for the local
// merge work.
func (ix *Index) CrawlContext(ctx context.Context) (err error) {
	defer metricCrawlSeconds.ObserveSince(time.Now())
	ctx, span := obs.StartSpan(ctx, "federation.crawl")
	span.SetAttr("index", ix.Name)
	defer func() {
		span.SetError(err)
		span.End()
	}()
	ix.crawlMu.Lock()
	defer ix.crawlMu.Unlock()
	return ix.crawlDelta(ctx)
}

// admit filters an export down to the entries the index accepts.
func admit(exp catalog.Export, filter query.Expr) (catalog.Export, error) {
	if filter == nil {
		return exp, nil
	}
	// Evaluate the filter on a temporary catalog of the member state.
	tmp := catalog.New(nil)
	if err := tmp.Import(exp); err != nil {
		return catalog.Export{}, err
	}
	res, err := query.Run(tmp, query.KDataset, filter)
	if err != nil {
		return catalog.Export{}, err
	}
	keep := make(map[string]bool, len(res.Datasets))
	for _, ds := range res.Datasets {
		keep[ds.Name] = true
	}
	out := exp
	out.Datasets = nil
	for _, ds := range exp.Datasets {
		if keep[ds.Name] {
			out.Datasets = append(out.Datasets, ds)
		}
	}
	// Keep only derivations whose outputs are all admitted, so the
	// filtered view stays provenance-consistent.
	out.Derivations = nil
	for _, dv := range exp.Derivations {
		tr, err := tmp.Transformation(dv.TR)
		if err != nil {
			continue
		}
		ok := true
		for _, o := range dv.Outputs(tr) {
			if !keep[o] {
				ok = false
				break
			}
		}
		if ok {
			out.Derivations = append(out.Derivations, dv)
		}
	}
	out.Replicas = nil
	for _, r := range exp.Replicas {
		if keep[r.Dataset] {
			out.Replicas = append(out.Replicas, r)
		}
	}
	out.Invocations = nil
	admittedDVs := make(map[string]bool, len(out.Derivations))
	for _, dv := range out.Derivations {
		admittedDVs[dv.ID] = true
	}
	for _, iv := range exp.Invocations {
		if admittedDVs[iv.Derivation] {
			out.Invocations = append(out.Invocations, iv)
		}
	}
	return out, nil
}

// SearchDatasets runs a discovery query against the index and returns
// attributed entries.
func (ix *Index) SearchDatasets(q string) ([]Entry, error) {
	ix.mu.RLock()
	shadow := ix.shadow
	ix.mu.RUnlock()
	res, err := query.Search(shadow, query.KDataset, q)
	if err != nil {
		return nil, err
	}
	out := make([]Entry, 0, len(res.Datasets))
	for _, ds := range res.Datasets {
		out = append(out, ix.entryFor("dataset", ds.Name))
	}
	return out, nil
}

// SearchTransformations runs a discovery query for transformations.
func (ix *Index) SearchTransformations(q string) ([]Entry, error) {
	ix.mu.RLock()
	shadow := ix.shadow
	ix.mu.RUnlock()
	res, err := query.Search(shadow, query.KTransformation, q)
	if err != nil {
		return nil, err
	}
	out := make([]Entry, 0, len(res.Transformations))
	for _, tr := range res.Transformations {
		out = append(out, ix.entryFor("transformation", tr.Ref()))
	}
	return out, nil
}

// LastPass reports what the last delta crawl pass did to the shadow:
// "unchanged", "fold" or "rebuild" ("" before the first pass).
func (ix *Index) LastPass() string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.lastPass
}

// Lookup finds the home of a specific object.
func (ix *Index) Lookup(kind, name string) (Entry, bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	a, ok := ix.origin[kind+"/"+name]
	if !ok {
		return Entry{}, false
	}
	return Entry{Kind: kind, Name: name, Authority: a,
		Ref: vds.Name{Authority: a, Object: name}.String()}, true
}

// Types exposes the shadow registry for type-aware queries.
func (ix *Index) Types() *dtype.Registry {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.shadow.Types()
}

// Stats reports the size of the indexed view.
func (ix *Index) Stats() catalog.Stats {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.shadow.Stats()
}

func (ix *Index) entryFor(kind, name string) Entry {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	a := ix.origin[kind+"/"+name]
	e := Entry{Kind: kind, Name: name, Authority: a}
	if a != "" {
		e.Ref = vds.Name{Authority: a, Object: name}.String()
	}
	return e
}
