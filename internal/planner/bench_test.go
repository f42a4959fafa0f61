package planner

import (
	"fmt"
	"testing"

	"chimera/internal/catalog"
	"chimera/internal/dag"
	"chimera/internal/estimator"
	"chimera/internal/executor"
	"chimera/internal/grid"
	"chimera/internal/replica"
	"chimera/internal/workload"
)

// benchWorld is the end-to-end benchmark's workflow_run placement
// problem in miniature: the three-region bandwidth hierarchy (16 sites
// a region makes its 48) with the given host count, an SDSS campaign with its primaries at the archive site,
// transatlantic links weighted 4. It returns the planner and the
// campaign's ready nodes (brgSearch: one primary field in, staged from
// the archive unless the job runs there).
func benchWorld(tb testing.TB, sitesPerRegion, hosts int) (*Planner, []*dag.Node) {
	tb.Helper()
	g, err := grid.HierarchicalTestbed(grid.HierarchyParams{
		SitesPerRegion: sitesPerRegion, Hosts: hosts, SpeedSpread: 0.1, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	w := workload.SDSS(workload.SDSSParams{Fields: 60, StripeSize: 20, Seed: 1})
	cat := catalog.New(nil)
	if err := w.Install(cat); err != nil {
		tb.Fatal(err)
	}
	if err := w.PlacePrimary(cat, g.Sites()[:1]); err != nil {
		tb.Fatal(err)
	}
	est := estimator.New(300)
	w.SeedEstimator(est, 3)
	graph, err := dag.Build(w.Derivations, cat.Resolver())
	if err != nil {
		tb.Fatal(err)
	}
	p := New(cat, est, grid.NewCluster(g, grid.NewSim(1)))
	p.LinkClassWeight = map[string]float64{grid.ClassTransatlantic: 4}
	return p, graph.Ready(nil)
}

// BenchmarkPlannerAssign times one placement decision over 48 sites at
// 1k and at 10k hosts, under the benchmark's popularity replication.
// ns/op and allocs/op must not grow with the host count.
func BenchmarkPlannerAssign(b *testing.B) {
	for _, hosts := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("hosts=%d", hosts), func(b *testing.B) {
			p, ready := benchWorld(b, 16, hosts)
			pop := replica.NewPopularity(1500)
			p.Pop = pop
			p.Replication = PopularityDriven{Pop: pop, Threshold: 2}
			// Two hundred placements stay in flight, so that pending load
			// spreads the jobs over the sites as it does in a run.
			var inflight [200]string
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pl, err := p.Assign(ready[i%len(ready)])
				if err != nil {
					b.Fatal(err)
				}
				slot := &inflight[i%len(inflight)]
				p.OnEvent(executor.Event{Kind: "done", Result: executor.Result{Site: *slot}})
				*slot = pl.Site
			}
		})
	}
}

// TestAssignAllocsIndependentOfGridSize holds the placement cost model:
// a decision allocates for what it resolves and returns, never per host
// and never per candidate scored. Ten times the hosts on the same 48
// sites, or an eighth of the sites, allocate exactly as much.
func TestAssignAllocsIndependentOfGridSize(t *testing.T) {
	allocs := func(sitesPerRegion, hosts int) float64 {
		p, ready := benchWorld(t, sitesPerRegion, hosts)
		n := ready[0]
		return testing.AllocsPerRun(50, func() {
			pl, err := p.Assign(n)
			if err != nil {
				t.Fatal(err)
			}
			p.OnEvent(executor.Event{Kind: "done", Result: executor.Result{Site: pl.Site}})
		})
	}
	base := allocs(16, 1000)
	if got := allocs(16, 10000); got != base {
		t.Errorf("one Assign allocates %v times at 1k hosts and %v at 10k", base, got)
	}
	if got := allocs(2, 1000); got != base {
		t.Errorf("one Assign allocates %v times over 48 sites and %v over 6", base, got)
	}
	t.Logf("%v allocations per Assign", base)
}
