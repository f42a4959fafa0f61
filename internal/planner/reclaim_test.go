package planner

import (
	"testing"

	catalogpkg "chimera/internal/catalog"
	"chimera/internal/dag"
	estimatorpkg "chimera/internal/estimator"
	"chimera/internal/executor"
	gridpkg "chimera/internal/grid"
	"chimera/internal/schema"
)

// reclaimWorld: east+west; primary "raw" with copies at both sites;
// derived "cooked" with a copy at west; plus a pinned replica.
func reclaimWorld(t *testing.T) *world {
	t.Helper()
	w := buildWorld(t, nil) // raw at east (primary)
	// Second copy of raw at west (evictable: not the last copy).
	if err := w.cat.AddReplica(schema.Replica{ID: "r-raw-west", Dataset: "raw", Site: "west", PFN: "/c/raw", Size: 4e6}); err != nil {
		t.Fatal(err)
	}
	// Derived dataset with its only copy at west (evictable: derivable).
	if err := w.cat.AddReplica(schema.Replica{ID: "r-cooked-west", Dataset: "cooked", Site: "west", PFN: "/c/cooked", Size: 2e6}); err != nil {
		t.Fatal(err)
	}
	// Pinned replica at west.
	if err := w.cat.AddDataset(schema.Dataset{Name: "precious"}); err != nil {
		t.Fatal(err)
	}
	if err := w.cat.AddReplica(schema.Replica{ID: "r-pin", Dataset: "precious", Site: "west", PFN: "/p", Size: 9e6,
		Attrs: schema.Attributes{"pin": "true"}}); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestReclaimEvictsLowValueFirst(t *testing.T) {
	w := reclaimWorld(t)
	// Record accesses making raw@west valuable.
	w.p.noteAccess("raw", "west", 4e6)
	w.p.noteAccess("raw", "west", 4e6)

	evicted, err := w.p.Reclaim("west", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(evicted) != 1 || evicted[0].ID != "r-cooked-west" {
		t.Fatalf("evicted: %+v", evicted)
	}
	// cooked is gone but re-derivable; raw copy survives.
	if w.cat.Materialized("cooked") {
		t.Error("cooked still materialized")
	}
	if len(w.cat.ReplicasOf("raw")) != 2 {
		t.Error("raw replica evicted despite higher value")
	}
}

func TestReclaimNeverDropsLastPrimaryOrPinned(t *testing.T) {
	w := reclaimWorld(t)
	// Ask for far more than is evictable.
	evicted, err := w.p.Reclaim("west", 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range evicted {
		if r.ID == "r-pin" {
			t.Error("pinned replica evicted")
		}
	}
	// raw's east copy (last remaining) must survive even under pressure.
	evicted2, err := w.p.Reclaim("east", 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	if len(evicted2) != 0 {
		t.Errorf("last primary copy evicted: %+v", evicted2)
	}
	if !w.cat.Materialized("raw") {
		t.Error("raw lost entirely")
	}
}

func TestReclaimedDataRederivable(t *testing.T) {
	w := reclaimWorld(t)
	// Evict everything evictable at west, including cooked's only copy.
	if _, err := w.p.Reclaim("west", 1<<40); err != nil {
		t.Fatal(err)
	}
	// cooked evicted; the recipe still materializes it.
	plan, err := w.cat.MaterializationPlan("cooked", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 1 {
		t.Fatalf("plan: %d", len(plan))
	}
}

func TestPendingLoadAblation(t *testing.T) {
	// With pending-load tracking disabled, a burst of assignments all
	// sees empty queues and lands on the data's site.
	build := func(disable bool) map[string]int {
		w := buildWorld(t, nil)
		w.p.DisablePendingLoad = disable
		counts := map[string]int{}
		for i := 0; i < 8; i++ {
			dv, err := w.cat.AddDerivation(schema.Derivation{TR: "t", Params: map[string]schema.Actual{
				"o": schema.DatasetActual("output", "out"+itoa(i)),
				"i": schema.DatasetActual("input", "raw"),
			}})
			if err != nil {
				t.Fatal(err)
			}
			g, err := dag.Build([]schema.Derivation{dv}, w.cat.Resolver())
			if err != nil {
				t.Fatal(err)
			}
			n, _ := g.Node(dv.ID)
			pl, err := w.p.Assign(n)
			if err != nil {
				t.Fatal(err)
			}
			counts[pl.Site]++
		}
		return counts
	}
	withTracking := build(false)
	if withTracking["west"] == 0 {
		t.Errorf("tracking enabled: burst did not spread: %v", withTracking)
	}
	without := build(true)
	if without["east"] != 8 {
		t.Errorf("tracking disabled: burst should pile on east: %v", without)
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func TestOnEventDecrements(t *testing.T) {
	w := buildWorld(t, nil)
	n := node(t, w)
	if _, err := w.p.Assign(n); err != nil {
		t.Fatal(err)
	}
	east, _ := w.cl.Grid.Site("east")
	if w.p.pendingLoad(east) == 0 {
		t.Fatal("assignment not tracked")
	}
	done := executor.Event{Kind: "done", Result: executor.Result{Site: "east"}}
	w.p.OnEvent(done)
	if w.p.pendingLoad(east) != 0 {
		t.Error("done event did not decrement")
	}
	// Double-decrement is clamped.
	w.p.OnEvent(done)
	if w.p.pendingLoad(east) != 0 {
		t.Error("negative pending")
	}
	// Dispatch events are ignored.
	w.p.OnEvent(executor.Event{Kind: "dispatch"})
}

func TestPlannerErrorOnEmptyGrid(t *testing.T) {
	w := buildWorld(t, nil)
	// Catalog references a dataset with replica at a host-less site.
	if _, err := w.p.Reclaim("ghost-site", 10); err != nil {
		t.Fatal(err) // reclaiming nothing is fine
	}
}

func TestFastSitePreferred(t *testing.T) {
	// Two empty sites; data at neither; west's hosts are 4x faster.
	// The expected saving (75s of a 100s job) dwarfs the transfer.
	g := gridpkg.NewGrid()
	for _, s := range []string{"east", "west"} {
		if _, err := g.AddSite(s, 1e15); err != nil {
			t.Fatal(err)
		}
	}
	g.AddHosts("east", "east", 2, 1.0, 1)
	g.AddHosts("west", "west", 2, 4.0, 1)
	g.Connect("east", "west", 100e6, 0.05, 4) // fast link
	cl := gridpkg.NewCluster(g, gridpkg.NewSim(3))

	cat := catalogpkg.New(nil)
	tr := schema.Transformation{Name: "t", Kind: schema.Simple, Exec: "/bin/t",
		Args: []schema.FormalArg{
			{Name: "o", Direction: schema.Out},
			{Name: "i", Direction: schema.In},
		}}
	if err := cat.AddTransformation(tr); err != nil {
		t.Fatal(err)
	}
	cat.AddDataset(schema.Dataset{Name: "raw", Size: 1e6})
	cat.AddReplica(schema.Replica{ID: "r", Dataset: "raw", Site: "east", PFN: "/r", Size: 1e6})
	dv, err := cat.AddDerivation(schema.Derivation{TR: "t", Params: map[string]schema.Actual{
		"o": schema.DatasetActual("output", "out"),
		"i": schema.DatasetActual("input", "raw"),
	}})
	if err != nil {
		t.Fatal(err)
	}
	est := estimatorpkg.New(100) // 100s reference job
	p := New(cat, est, cl)
	graph, err := dag.Build([]schema.Derivation{dv}, cat.Resolver())
	if err != nil {
		t.Fatal(err)
	}
	n, _ := graph.Node(dv.ID)
	pl, err := p.Assign(n)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Site != "west" {
		t.Errorf("fast site not preferred: %s", pl.Site)
	}
}
