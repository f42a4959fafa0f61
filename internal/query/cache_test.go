package query

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"chimera/internal/catalog"
	"chimera/internal/dtype"
	"chimera/internal/schema"
)

// resetCache restores the default capacity now and when the test ends,
// so a capacity change never leaks across tests. (Cached results cannot
// leak: each catalog carries its own cache.)
func resetCache(t *testing.T) {
	t.Helper()
	SetPlanCacheCapacity(DefaultPlanCacheCapacity)
	t.Cleanup(func() { SetPlanCacheCapacity(DefaultPlanCacheCapacity) })
}

// TestCacheHitServesIdenticalResults: the second run of a query at an
// unchanged version must be a cache hit and return results equal to both
// the first run and the naive evaluator.
func TestCacheHitServesIdenticalResults(t *testing.T) {
	resetCache(t)
	c := fixture(t)
	e := mustParse(t, "derived")

	before := CacheStats()
	r1, err := Run(c, KDataset, e)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(c, KDataset, e)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("cached results differ:\n%+v\n%+v", r1, r2)
	}
	naive, err := runNaive(c, KDataset, e)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, naive) {
		t.Fatalf("cached run differs from naive evaluation:\n%+v\n%+v", r1, naive)
	}
	after := CacheStats()
	if after.Hits-before.Hits != 1 || after.Misses-before.Misses != 1 {
		t.Fatalf("hits +%d misses +%d, want +1/+1",
			after.Hits-before.Hits, after.Misses-before.Misses)
	}
	// The cached copy must be defensive: mutating a returned slice
	// element cannot poison later hits.
	if len(r2.Datasets) == 0 {
		t.Fatal("expected derived datasets")
	}
	r2.Datasets[0].Name = "clobbered"
	r3, err := Run(c, KDataset, e)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r3) {
		t.Fatal("cache entry aliased by a caller mutation")
	}
}

// TestCacheInvalidationOnMutation: any catalog mutation moves the
// catalog version, so the same query misses and observes the new state —
// entries can go stale but can never be served stale.
func TestCacheInvalidationOnMutation(t *testing.T) {
	resetCache(t)
	c := fixture(t)
	e := mustParse(t, "attr.owner = annis")

	r1, err := Run(c, KDataset, e)
	if err != nil {
		t.Fatal(err)
	}
	mid := CacheStats()
	if err := c.AddDataset(schema.Dataset{
		Name: "raw3", Attrs: schema.Attributes{"owner": "annis"},
	}); err != nil {
		t.Fatal(err)
	}
	r2, err := Run(c, KDataset, e)
	if err != nil {
		t.Fatal(err)
	}
	after := CacheStats()
	if after.Hits != mid.Hits {
		t.Fatal("post-mutation run hit a stale entry")
	}
	if after.Misses-mid.Misses != 1 {
		t.Fatalf("post-mutation misses +%d, want +1", after.Misses-mid.Misses)
	}
	if len(r2.Datasets) != len(r1.Datasets)+1 {
		t.Fatalf("mutation invisible: %d -> %d datasets", len(r1.Datasets), len(r2.Datasets))
	}
}

// TestCacheCapacityAndDisable: the LRU bound holds per catalog and
// evicts, and capacity 0 disables caching entirely.
func TestCacheCapacityAndDisable(t *testing.T) {
	resetCache(t)
	c, d := fixture(t), fixture(t)

	SetPlanCacheCapacity(8)
	before := CacheStats()
	for i := 0; i < 64; i++ {
		if _, err := Run(c, KDataset, mustParse(t, fmt.Sprintf("attr.stripe = %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := Run(d, KDataset, mustParse(t, fmt.Sprintf("attr.stripe = %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	after := CacheStats()
	if after.Capacity != 8 {
		t.Fatalf("capacity %d, want 8", after.Capacity)
	}
	if got := CacheSize(c); got != 8 {
		t.Fatalf("64 distinct queries at capacity 8 left %d entries, want 8", got)
	}
	if got := CacheSize(d); got != 3 {
		t.Fatalf("second catalog holds %d entries, want its own 3", got)
	}
	if got := after.Evictions - before.Evictions; got != 64-8 {
		t.Fatalf("evictions +%d, want %d", got, 64-8)
	}

	SetPlanCacheCapacity(0)
	if got := CacheStats().Capacity; got != 0 {
		t.Fatalf("disable left capacity %d", got)
	}
	fresh := fixture(t)
	e := mustParse(t, "derived")
	h0 := CacheStats().Hits
	for i := 0; i < 3; i++ {
		if _, err := Run(fresh, KDataset, e); err != nil {
			t.Fatal(err)
		}
	}
	if got := CacheStats().Hits; got != h0 {
		t.Fatalf("disabled cache served %d hits", got-h0)
	}
	if got := CacheSize(fresh); got != 0 {
		t.Fatalf("disabled cache filled %d entries", got)
	}
}

// TestExplainReportsCachePlacement: ?explain=1's backing call reports
// whether a run right now would be served from cache, keyed on the
// catalog's current version, without distorting the LRU.
func TestExplainReportsCachePlacement(t *testing.T) {
	resetCache(t)
	c := fixture(t)
	e := mustParse(t, "executed")

	info, err := ExplainQuery(c, KDerivation, e)
	if err != nil {
		t.Fatal(err)
	}
	if info.Cached {
		t.Fatal("cold query reported cached")
	}
	// The epoch is the journal cursor /debug/vdc reports.
	js := c.JournalState()
	wantEpoch := fmt.Sprintf("%d.%d", js.Instance, js.Seq)
	if info.Epoch != wantEpoch {
		t.Fatalf("epoch %q, want journal cursor %q", info.Epoch, wantEpoch)
	}
	if info.Plan == "" {
		t.Fatal("empty plan")
	}

	if _, err := Run(c, KDerivation, e); err != nil {
		t.Fatal(err)
	}
	info, err = ExplainQuery(c, KDerivation, e)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Cached {
		t.Fatal("executed query not reported cached")
	}

	// A mutation moves the version: the placement flips back.
	if err := c.AddDataset(schema.Dataset{Name: "bump"}); err != nil {
		t.Fatal(err)
	}
	info, err = ExplainQuery(c, KDerivation, e)
	if err != nil {
		t.Fatal(err)
	}
	if info.Cached {
		t.Fatal("stale-version entry reported cached")
	}
	if info.Epoch == wantEpoch {
		t.Fatal("version did not move on mutation")
	}
}

// TestCacheHoldsOneVersion: a catalog's cache holds only the entries of
// its current version. Each mutation below leaves the query run before
// it unreachable, so after n mutation/query pairs exactly the last
// query's entry remains — not n of them.
func TestCacheHoldsOneVersion(t *testing.T) {
	resetCache(t)
	c := fixture(t)
	const n = 50
	before := CacheStats()
	for i := 0; i < n; i++ {
		if err := c.AddDataset(schema.Dataset{
			Name: fmt.Sprintf("v%d", i), Attrs: schema.Attributes{"i": fmt.Sprint(i)},
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := Run(c, KDataset, mustParse(t, fmt.Sprintf("attr.i = %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := CacheSize(c); got != 1 {
		t.Fatalf("after %d mutation/query pairs the cache holds %d entries, want 1", n, got)
	}
	if got := CacheStats().Evictions - before.Evictions; got != 0 {
		t.Fatalf("dropping old versions counted %d evictions, want 0", got)
	}
	// The surviving entry is the current version's: it hits.
	h := CacheStats().Hits
	if _, err := Run(c, KDataset, mustParse(t, fmt.Sprintf("attr.i = %d", n-1))); err != nil {
		t.Fatal(err)
	}
	if CacheStats().Hits != h+1 {
		t.Fatal("current-version entry missed")
	}
}

// TestCachePerCatalog: two catalogs with identical content queried
// alternately keep separate caches — both hit — and mutating one leaves
// the other's entries intact.
func TestCachePerCatalog(t *testing.T) {
	resetCache(t)
	a, b := fixture(t), fixture(t)
	e := mustParse(t, "derived")
	hitsOf := func(c *catalog.Catalog) uint64 {
		t.Helper()
		h := CacheStats().Hits
		res, err := Run(c, KDataset, e)
		if err != nil {
			t.Fatal(err)
		}
		if want := evalUncached(t, c, KDataset, e); !sameResults(res, want) {
			t.Fatalf("Run %+v, fresh run %+v", res, want)
		}
		return CacheStats().Hits - h
	}
	for round := 0; round < 3; round++ {
		for i, c := range []*catalog.Catalog{a, b} {
			want := uint64(1)
			if round == 0 {
				want = 0
			}
			if got := hitsOf(c); got != want {
				t.Fatalf("round %d catalog %d: %d hits, want %d", round, i, got, want)
			}
		}
	}
	if err := a.AddDataset(schema.Dataset{Name: "d-new"}); err != nil {
		t.Fatal(err)
	}
	if hitsOf(b) != 1 {
		t.Fatal("mutating one catalog dropped the other's entry")
	}
	if hitsOf(a) != 0 {
		t.Fatal("mutated catalog served its old version's entry")
	}
	if hitsOf(a) != 1 {
		t.Fatal("mutated catalog did not cache at its new version")
	}
}

// sameResults compares result sets object by object, every field
// included: an entry served for a stale version with the same names but
// older attributes, epochs or replicas must not pass.
func sameResults(a, b Results) bool {
	return sameObjects(a.Datasets, b.Datasets) &&
		sameObjects(a.Transformations, b.Transformations) &&
		sameObjects(a.Derivations, b.Derivations)
}

func sameObjects[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// cachePool is the fixed predicate pool the oracle tests query after
// every step: every predicate kind of the grammar, over the objects
// randomCatalog and cacheHistory create, plus the three connectives.
var cachePool = []string{
	`*`,
	`name = ds1`, `name != ds0`, `name ~ "o*"`, `name ~ "h*"`, `name ~ "t::*"`,
	`attr.owner = ann`, `attr.owner != bob`, `attr.batch ~ "*"`, `attr.owner = carl`,
	`type <= root`, `type <= mid`, `type <= leaf`, `type <= other`, `type <= Dataset`,
	`input <= root`, `output <= mid`,
	`tr = t::gen`, `tr = t::gen:2`, `tr = t::gen:3`, `tr = t`,
	`derived`, `materialized`, `virtual`, `executed`, `simple`, `compound`,
	`consumes(ds2)`, `produces(o3)`, `descendantof(ds1)`, `ancestorof(o5)`,
	`(attr.owner = ann and materialized)`, `(derived or type <= leaf)`, `not virtual`,
}

// cacheHistory drives one writer's random history over a catalog,
// through every mutation path whose effect a query can observe. All of
// its object names carry prefix, so concurrent writers do not collide.
type cacheHistory struct {
	r      *rand.Rand
	c      *catalog.Catalog
	prefix string
	n      int

	names    []string // datasets this history may touch
	types    []string // content types defined so far
	replicas []string
	dvs      []string

	// ApplyDelta's source catalog and its sync cursor.
	src             *catalog.Catalog
	srcInst, srcSeq uint64
}

func newCacheHistory(c *catalog.Catalog, seed int64, prefix string) *cacheHistory {
	h := &cacheHistory{
		r: rand.New(rand.NewSource(seed)), c: c, prefix: prefix,
		types: []string{"root", "mid", "leaf", "other", ""},
		src:   catalog.New(nil),
	}
	for i := 0; i < 8; i++ {
		h.names = append(h.names, fmt.Sprintf("ds%d", i))
	}
	return h
}

func (h *cacheHistory) name(kind string) string {
	h.n++
	return fmt.Sprintf("%s%s%d", h.prefix, kind, h.n)
}

func (h *cacheHistory) pick(from []string) string { return from[h.r.Intn(len(from))] }

func (h *cacheHistory) attrs() schema.Attributes {
	a := schema.Attributes{"owner": h.pick([]string{"ann", "bob", "carl"})}
	if h.r.Intn(2) == 0 {
		a["batch"] = h.pick([]string{"x", "y"})
	}
	return a
}

// step applies one random mutation. Errors are part of the history (a
// conflicting re-add, a replica already gone): a failed mutation must
// leave both state and version alone, so the oracle still holds.
func (h *cacheHistory) step() {
	c, r := h.c, h.r
	switch r.Intn(12) {
	case 0: // new dataset
		name := h.name("h")
		if c.AddDataset(schema.Dataset{Name: name, Type: dtype.Type{Content: h.pick(h.types)}, Attrs: h.attrs()}) == nil {
			h.names = append(h.names, name)
		}
	case 1: // identical re-add: a no-op that must keep the cache
		if ds, err := c.Dataset(h.pick(h.names)); err == nil {
			c.AddDataset(ds)
		}
	case 2: // in-place update of attributes
		if ds, err := c.Dataset(h.pick(h.names)); err == nil {
			ds.Attrs = h.attrs()
			c.UpdateDataset(ds)
		}
	case 3:
		id := h.name("r")
		if c.AddReplica(schema.Replica{ID: id, Dataset: h.pick(h.names), Site: "s", PFN: "/" + id}) == nil {
			h.replicas = append(h.replicas, id)
		}
	case 4:
		if len(h.replicas) > 0 {
			c.RemoveReplica(h.pick(h.replicas))
		}
	case 5:
		c.BumpEpoch(h.pick(h.names), r.Intn(2) == 0)
	case 6:
		name := h.name("T")
		if c.DefineType(dtype.Content, name, h.pick(h.types[:4])) == nil {
			h.types = append(h.types, name)
		}
	case 7:
		c.AssertCompatibility(schema.CompatibilityAssertion{
			Namespace: "t", Name: "gen", V1: "2", V2: h.pick([]string{"3", "4"}),
			Mode: schema.CompatMode(h.pick([]string{"equivalent", "supersedes", "incompatible"})),
		})
	case 8:
		c.AddTransformation(schema.Transformation{
			Namespace: "t", Name: "gen", Version: h.pick([]string{"3", "4"}), Kind: schema.Simple, Exec: "/bin/gen",
			Args: []schema.FormalArg{{Name: "o", Direction: schema.Out}, {Name: "i", Direction: schema.In}},
		})
	case 9:
		out := h.name("o")
		dv, err := c.AddDerivation(schema.Derivation{
			TR: h.pick([]string{"t::gen", "t::gen:2"}), Attrs: h.attrs(),
			Params: map[string]schema.Actual{
				"o": schema.DatasetActual("output", out),
				"i": schema.DatasetActual("input", h.pick(h.names)),
			}})
		if err == nil {
			h.dvs = append(h.dvs, dv.ID)
			h.names = append(h.names, out)
		}
	case 10:
		if len(h.dvs) > 0 {
			c.AddInvocation(schema.Invocation{ID: h.name("iv"), Derivation: h.pick(h.dvs)})
		}
	case 11: // fold a delta from another catalog
		name, rep := h.name("x"), h.name("xr")
		h.src.AddDataset(schema.Dataset{Name: name, Attrs: h.attrs()})
		h.src.AddReplica(schema.Replica{ID: rep, Dataset: name, Site: "s", PFN: "/" + rep})
		d := h.src.ChangesSince(h.srcSeq, h.srcInst)
		h.srcInst, h.srcSeq = d.Instance, d.Seq
		c.ApplyDelta(d)
		h.names = append(h.names, name)
	}
}

// runVsFresh runs e through Run and then plans and executes it afresh
// on a new View. stable is false when the catalog's sequence moved in
// between (a concurrent writer): the two then saw different states and
// must not be compared. Safe to call off the test goroutine.
func runVsFresh(c *catalog.Catalog, kind Kind, e Expr) (got, want Results, stable bool, err error) {
	seq := c.Seq()
	if got, err = Run(c, kind, e); err != nil {
		return
	}
	v := c.View()
	want, _, err = evalView(v, kind, e)
	v.Close()
	return got, want, c.Seq() == seq, err
}

// checkCachePool runs every pool predicate for every kind twice — the
// second run a hit — and fails unless each Run equals a fresh uncached
// evaluation at the same version. It returns how many runs it compared.
func checkCachePool(t *testing.T, c *catalog.Catalog, pool []Expr, label string) (compared int) {
	t.Helper()
	for _, e := range pool {
		for _, kind := range []Kind{KDataset, KTransformation, KDerivation} {
			for rep := 0; rep < 2; rep++ {
				got, want, stable, err := runVsFresh(c, kind, e)
				if err != nil {
					t.Fatalf("%s: Run(%d, %s): %v", label, kind, e, err)
				}
				if !stable {
					continue
				}
				if !sameResults(got, want) {
					t.Fatalf("%s: Run(%d, %s) differs from a fresh run at the same version:\n got  %+v\n want %+v",
						label, kind, e, got, want)
				}
				compared++
			}
		}
	}
	return compared
}

func parsePool(t *testing.T) []Expr {
	pool := make([]Expr, len(cachePool))
	for i, src := range cachePool {
		pool[i] = mustParse(t, src)
	}
	return pool
}

// TestCacheHitEqualsFreshRunRandomized is the cache's correctness
// oracle: over random histories through every mutation path, a cached
// Run always equals planning and executing the query afresh on the
// same state.
func TestCacheHitEqualsFreshRunRandomized(t *testing.T) {
	resetCache(t)
	pool := parsePool(t)
	h0 := CacheStats().Hits
	for seed := int64(0); seed < 4; seed++ {
		c := randomCatalog(t, rand.New(rand.NewSource(seed)), 1)
		h := newCacheHistory(c, seed, "")
		checkCachePool(t, c, pool, fmt.Sprintf("seed %d initial", seed))
		for step := 0; step < 60; step++ {
			h.step()
			checkCachePool(t, c, pool, fmt.Sprintf("seed %d step %d", seed, step))
		}
		if err := c.CheckIndexes(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	if CacheStats().Hits == h0 {
		t.Fatal("oracle never exercised a cache hit")
	}
}

// TestCacheHitEqualsFreshRunConcurrent is the oracle under concurrency
// (run it with -race): 4 readers check the pool while 2 writers run
// random histories, so the memo slot is installed by racing readers at
// every version.
func TestCacheHitEqualsFreshRunConcurrent(t *testing.T) {
	resetCache(t)
	pool := parsePool(t)
	c := randomCatalog(t, rand.New(rand.NewSource(7)), 1)
	steps := 600
	if testing.Short() {
		steps = 100
	}

	var writers sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			h := newCacheHistory(c, int64(100+w), fmt.Sprintf("w%d", w))
			for i := 0; i < steps; i++ {
				h.step()
			}
		}(w)
	}
	go func() { writers.Wait(); close(done) }()

	var readers sync.WaitGroup
	var compared atomic.Int64
	for rd := 0; rd < 4; rd++ {
		readers.Add(1)
		go func(rd int) {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for i, e := range pool {
					kind := Kind(i % 3)
					got, want, stable, err := runVsFresh(c, kind, e)
					if err != nil {
						t.Error(err)
						return
					}
					if !stable {
						continue
					}
					if !sameResults(got, want) {
						t.Errorf("reader %d: Run(%d, %s) differs from a fresh run at the same version", rd, kind, e)
						return
					}
					compared.Add(1)
				}
			}
		}(rd)
	}
	readers.Wait()
	// Quiesced: every run must now compare.
	if n := checkCachePool(t, c, pool, "after writers"); n != 2*3*len(pool) {
		t.Fatalf("compared %d runs at rest, want %d", n, 2*3*len(pool))
	}
	if compared.Load() == 0 {
		t.Fatal("no concurrent run was compared at a stable version")
	}
	if err := c.CheckIndexes(); err != nil {
		t.Fatal(err)
	}
}
