package planner

import (
	"testing"

	"chimera/internal/grid"
	"chimera/internal/replica"
	"chimera/internal/schema"
)

func TestPopularityDecay(t *testing.T) {
	pop := replica.NewPopularity(100) // half-life 100s
	pop.Bump("d", "west", 0)
	pop.Bump("d", "west", 0)
	if got := pop.Score("d", "west", 0); got != 2 {
		t.Errorf("score at t=0: %g", got)
	}
	// One half-life later the score has halved.
	if got := pop.Score("d", "west", 100); got != 1 {
		t.Errorf("score after one half-life: %g", got)
	}
	// A bump after decay adds to the decayed value, not the raw count.
	if got := pop.Bump("d", "west", 100); got != 2 {
		t.Errorf("bump after decay: %g", got)
	}
	if got := pop.Total("d", 100); got != 2 {
		t.Errorf("total: %g", got)
	}
	pop.Bump("d", "east", 100)
	if site, _ := pop.Hottest("d", 100); site != "west" {
		t.Errorf("hottest: %s", site)
	}
	pop.Forget("d", "west")
	if got := pop.Score("d", "west", 100); got != 0 {
		t.Errorf("score after forget: %g", got)
	}
	if site, _ := pop.Hottest("d", 100); site != "east" {
		t.Errorf("hottest after forget: %s", site)
	}
	// Zero half-life: plain counting, no decay.
	flat := replica.NewPopularity(0)
	flat.Bump("d", "west", 0)
	if got := flat.Score("d", "west", 1e9); got != 1 {
		t.Errorf("flat tracker decayed: %g", got)
	}
}

func TestPopularityDrivenPolicy(t *testing.T) {
	now := 0.0
	pol := PopularityDriven{
		Pop:       replica.NewPopularity(50),
		Now:       func() float64 { return now },
		Threshold: 3,
	}
	if got := pol.OnAccess("d", 1, "east", "west", nil); got != nil {
		t.Errorf("first access replicated: %v", got)
	}
	if got := pol.OnAccess("d", 1, "east", "west", nil); got != nil {
		t.Errorf("second access replicated: %v", got)
	}
	if got := pol.OnAccess("d", 1, "east", "west", nil); len(got) != 1 || got[0] != "west" {
		t.Errorf("third access: %v", got)
	}
	// After many half-lives the site has to earn the replica again.
	now = 1e4
	if got := pol.OnAccess("d", 1, "east", "west", nil); got != nil {
		t.Errorf("decayed popularity still replicates: %v", got)
	}
	// A nil tracker is inert, not a panic.
	if got := (PopularityDriven{}).OnAccess("d", 1, "east", "west", nil); got != nil {
		t.Errorf("nil tracker: %v", got)
	}
}

// TestReplicationStorageAccounting checks the accounted replicate path:
// replicas reserve bytes at their destination, a full destination skips
// creation without economy eviction, and reclaim returns exactly what
// was reserved.
func TestReplicationStorageAccounting(t *testing.T) {
	w := buildWorld(t, map[string]string{ProfileHomeSites: "west"})
	w.p.Replication = CacheAtClient{}
	w.p.noteAccess("raw", "west", 8e6)
	west, _ := w.cl.Grid.Site("west")
	if west.Storage.Used() != 8e6 {
		t.Fatalf("replica bytes not reserved: used=%d", west.Storage.Used())
	}
	if len(w.cat.ReplicasOf("raw")) != 2 {
		t.Fatalf("replica not created")
	}
	// Reclaim the cached copy: the reservation comes back, the primary
	// at east is untouched.
	evicted, err := w.p.Reclaim("west", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 1 {
		t.Fatalf("evicted: %+v", evicted)
	}
	if west.Storage.Used() != 0 {
		t.Errorf("reservation leaked after eviction: %d", west.Storage.Used())
	}

	// A destination too small for the dataset skips the replica (no
	// economy eviction configured).
	tiny := buildWorld(t, map[string]string{ProfileHomeSites: "west"})
	g := tiny.cl.Grid
	if _, err := g.AddSite("small", 100); err != nil {
		t.Fatal(err)
	}
	if err := g.AddHosts("small", "small", 1, 1.0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.Connect("east", "small", 1e6, 0.1, 4); err != nil {
		t.Fatal(err)
	}
	tiny.p.Replication = CacheAtClient{}
	tiny.p.noteAccess("raw", "small", 8e6)
	if n := len(tiny.cat.ReplicasOf("raw")); n != 1 {
		t.Errorf("replica created past storage capacity: %d copies", n)
	}
}

// TestEconomyEvictionMakesRoom checks reclaim-on-full: with
// EconomyEviction on, the lowest-valued (popularity × refetch-cost)
// replica is evicted to admit a hotter one.
func TestEconomyEvictionMakesRoom(t *testing.T) {
	w := buildWorld(t, nil)
	g := w.cl.Grid
	// A cache site that fits exactly one 8 MB replica.
	if _, err := g.AddSite("edge", 10e6); err != nil {
		t.Fatal(err)
	}
	if err := g.AddHosts("edge", "edge", 1, 1.0, 1); err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"east", "west"} {
		if err := g.Connect(s, "edge", 1e6, 0.1, 4); err != nil {
			t.Fatal(err)
		}
	}
	// Second dataset, primary at east.
	if err := w.cat.AddDataset(schema.Dataset{Name: "cold", Size: 8e6}); err != nil {
		t.Fatal(err)
	}
	if err := w.cat.AddReplica(schema.Replica{ID: "r-cold", Dataset: "cold", Site: "east", PFN: "/cold", Size: 8e6}); err != nil {
		t.Fatal(err)
	}

	now := 0.0
	pop := replica.NewPopularity(1000)
	w.p.Pop = pop
	w.p.SimNow = func() float64 { return now }
	w.p.EconomyEviction = true
	w.p.Replication = PopularityDriven{Pop: pop, Now: w.p.SimNow, Threshold: 1}

	// "cold" gets cached at edge first.
	w.p.noteAccess("cold", "edge", 8e6)
	edge, _ := g.Site("edge")
	if edge.Storage.Used() != 8e6 {
		t.Fatalf("cold not cached: used=%d", edge.Storage.Used())
	}
	// Time passes; cold's popularity decays while raw becomes hot.
	now = 5000
	w.p.noteAccess("raw", "edge", 8e6)
	now = 5001
	w.p.noteAccess("raw", "edge", 8e6)

	sitesOf := func(ds string) map[string]bool {
		out := map[string]bool{}
		for _, r := range w.cat.ReplicasOf(ds) {
			out[r.Site] = true
		}
		return out
	}
	if !sitesOf("raw")["edge"] {
		t.Error("hot dataset did not displace cold one")
	}
	if sitesOf("cold")["edge"] {
		t.Error("cold replica survived economy eviction")
	}
	if edge.Storage.Used() != 8e6 {
		t.Errorf("storage accounting after swap: used=%d", edge.Storage.Used())
	}
}

// TestLinkClassWeightSteersPlacement checks hierarchy-aware scoring:
// weighting transatlantic staging pushes placement to a same-region
// site even when the transatlantic link is nominally faster.
func TestLinkClassWeightSteersPlacement(t *testing.T) {
	w := buildWorld(t, nil)
	g := w.cl.Grid
	// A third site across the ocean with a faster link to east than
	// west's, and faster hosts.
	if _, err := g.AddSite("far", 1e15); err != nil {
		t.Fatal(err)
	}
	if err := g.AddHosts("far", "far", 4, 4.0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.ConnectClass("east", "far", grid.ClassTransatlantic, 2e6, 0.1, 4); err != nil {
		t.Fatal(err)
	}
	if err := g.ConnectClass("east", "west", grid.ClassRegional, 1e6, 0.1, 4); err != nil {
		t.Fatal(err)
	}

	assign := func() string {
		n := node(t, w)
		pl, err := w.p.Assign(n)
		if err != nil {
			t.Fatal(err)
		}
		return pl.Site
	}
	if site := assign(); site != "far" {
		t.Fatalf("unweighted placement: %s (want far: more cores, faster link)", site)
	}
	// Penalize transatlantic traffic 10x: the regional site wins.
	w.p.LinkClassWeight = map[string]float64{grid.ClassTransatlantic: 10}
	if site := assign(); site == "far" {
		t.Error("weighted placement still crosses the ocean")
	}
}
