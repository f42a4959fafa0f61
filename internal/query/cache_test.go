package query

import (
	"fmt"
	"reflect"
	"testing"

	"chimera/internal/schema"
)

// resetCache clears the process-wide plan/result cache and restores the
// default capacity when the test ends, so cache state never leaks
// across tests.
func resetCache(t *testing.T) {
	t.Helper()
	SetPlanCacheCapacity(0)
	SetPlanCacheCapacity(DefaultPlanCacheCapacity)
	t.Cleanup(func() {
		SetPlanCacheCapacity(0)
		SetPlanCacheCapacity(DefaultPlanCacheCapacity)
	})
}

// TestCacheHitServesIdenticalResults: the second run of a query at an
// unchanged epoch must be a cache hit and return results equal to both
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
// epoch version, so the same query misses and observes the new state —
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

// TestCacheCapacityAndDisable: the LRU bound holds and evicts, and
// capacity 0 disables caching entirely.
func TestCacheCapacityAndDisable(t *testing.T) {
	resetCache(t)
	c := fixture(t)

	SetPlanCacheCapacity(8)
	before := CacheStats()
	for i := 0; i < 64; i++ {
		if _, err := Run(c, KDataset, mustParse(t, fmt.Sprintf("attr.stripe = %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	after := CacheStats()
	if after.Size > after.Capacity {
		t.Fatalf("size %d exceeds capacity %d", after.Size, after.Capacity)
	}
	if after.Evictions == before.Evictions {
		t.Fatal("64 distinct queries at capacity 8 must evict")
	}

	SetPlanCacheCapacity(0)
	if got := CacheStats(); got.Size != 0 || got.Capacity != 0 {
		t.Fatalf("disable left size=%d capacity=%d", got.Size, got.Capacity)
	}
	e := mustParse(t, "derived")
	h0 := CacheStats().Hits
	for i := 0; i < 3; i++ {
		if _, err := Run(c, KDataset, e); err != nil {
			t.Fatal(err)
		}
	}
	if got := CacheStats().Hits; got != h0 {
		t.Fatalf("disabled cache served %d hits", got-h0)
	}
}

// TestExplainReportsCachePlacement: ?explain=1's backing call reports
// whether a run right now would be served from cache, keyed on the
// current epoch vector, without distorting the LRU.
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
	v := c.View()
	wantEpoch := v.EpochKey()
	v.Close()
	if info.Epoch != wantEpoch {
		t.Fatalf("epoch %q, want %q", info.Epoch, wantEpoch)
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

	// A mutation moves the epoch vector: the placement flips back.
	if err := c.AddDataset(schema.Dataset{Name: "bump"}); err != nil {
		t.Fatal(err)
	}
	info, err = ExplainQuery(c, KDerivation, e)
	if err != nil {
		t.Fatal(err)
	}
	if info.Cached {
		t.Fatal("stale-epoch entry reported cached")
	}
	if info.Epoch == wantEpoch {
		t.Fatal("epoch vector did not move on mutation")
	}
}
