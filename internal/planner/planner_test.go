package planner

import (
	"errors"
	"fmt"
	"testing"

	"chimera/internal/catalog"
	"chimera/internal/dag"
	"chimera/internal/estimator"
	"chimera/internal/executor"
	"chimera/internal/grid"
	"chimera/internal/schema"
)

// world builds two sites (east with data, west empty) with one host
// each, a slow link, a catalog with transformation t, dataset raw at
// east, and one derivation raw -> cooked.
type world struct {
	cat *catalog.Catalog
	est *estimator.Estimator
	cl  *grid.Cluster
	p   *Planner
	g   *dag.Graph
	dv  schema.Derivation
}

func buildWorld(t *testing.T, profile map[string]string) *world {
	t.Helper()
	return buildWorldOn(t, catalog.New(nil), profile)
}

// buildWorldOn builds the world in a catalog of the caller's.
func buildWorldOn(t *testing.T, cat *catalog.Catalog, profile map[string]string) *world {
	t.Helper()
	g := grid.NewGrid()
	for _, s := range []string{"east", "west"} {
		if _, err := g.AddSite(s, 1e15); err != nil {
			t.Fatal(err)
		}
		if err := g.AddHosts(s, s, 1, 1.0, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Connect("east", "west", 1e6, 0.1, 4); err != nil { // 1 MB/s
		t.Fatal(err)
	}
	cl := grid.NewCluster(g, grid.NewSim(5))

	tr := schema.Transformation{Name: "t", Kind: schema.Simple, Exec: "/bin/t",
		Profile: profile,
		Args: []schema.FormalArg{
			{Name: "o", Direction: schema.Out},
			{Name: "i", Direction: schema.In},
		}}
	if err := cat.AddTransformation(tr); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddDataset(schema.Dataset{Name: "raw", Size: 8e6}); err != nil { // 8 MB
		t.Fatal(err)
	}
	if err := cat.AddReplica(schema.Replica{ID: "r-raw", Dataset: "raw", Site: "east", PFN: "/raw", Size: 8e6}); err != nil {
		t.Fatal(err)
	}
	dv, err := cat.AddDerivation(schema.Derivation{TR: "t", Params: map[string]schema.Actual{
		"o": schema.DatasetActual("output", "cooked"),
		"i": schema.DatasetActual("input", "raw"),
	}})
	if err != nil {
		t.Fatal(err)
	}
	graph, err := dag.Build([]schema.Derivation{dv}, cat.Resolver())
	if err != nil {
		t.Fatal(err)
	}
	est := estimator.New(100) // default work 100s
	return &world{cat: cat, est: est, cl: cl, p: New(cat, est, cl), g: graph, dv: dv}
}

func node(t *testing.T, w *world) *dag.Node {
	t.Helper()
	n, ok := w.g.Node(w.dv.ID)
	if !ok {
		t.Fatal("node missing")
	}
	return n
}

func TestAutoPrefersDataLocality(t *testing.T) {
	w := buildWorld(t, nil)
	pl, err := w.p.Assign(node(t, w))
	if err != nil {
		t.Fatal(err)
	}
	// 8 MB over 1 MB/s link (4 streams → 250 KB/s) = 32s+; east avoids it.
	if pl.Site != "east" {
		t.Errorf("site: %s", pl.Site)
	}
	if len(pl.Transfers) != 0 {
		t.Errorf("transfers: %v", pl.Transfers)
	}
	if pl.Work != 100 {
		t.Errorf("work: %g", pl.Work)
	}
}

func TestAutoAvoidsCongestedSite(t *testing.T) {
	w := buildWorld(t, nil)
	// Pile 100 jobs on east's only host: queue delay dwarfs transfer.
	for i := 0; i < 100; i++ {
		w.cl.Submit("east-0", &grid.Job{ID: fmt.Sprintf("bg%d", i), Work: 1000})
	}
	pl, err := w.p.Assign(node(t, w))
	if err != nil {
		t.Fatal(err)
	}
	if pl.Site != "west" {
		t.Errorf("site under congestion: %s", pl.Site)
	}
	if len(pl.Transfers) != 1 || pl.Transfers[0].FromSite != "east" || pl.Transfers[0].Bytes != 8e6 {
		t.Errorf("staging: %+v", pl.Transfers)
	}
}

func TestPinnedProcedureImmovable(t *testing.T) {
	w := buildWorld(t, map[string]string{ProfileHomeSites: "west"})
	pl, err := w.p.Assign(node(t, w))
	if err != nil {
		t.Fatal(err)
	}
	if pl.Site != "west" {
		t.Errorf("pinned procedure ran at %s", pl.Site)
	}
	if len(pl.Transfers) != 1 {
		t.Errorf("pinned procedure should stage data: %+v", pl.Transfers)
	}
}

func TestInstallCostCrossover(t *testing.T) {
	// Procedure homed at west, movable for 5s. Small data: cheaper to
	// ship data to west. Huge data: cheaper to install at east.
	run := func(size int64) string {
		w := buildWorld(t, map[string]string{
			ProfileHomeSites:      "west",
			ProfileInstallSeconds: "5",
		})
		ds, _ := w.cat.Dataset("raw")
		ds.Size = size
		if err := w.cat.UpdateDataset(ds); err != nil {
			t.Fatal(err)
		}
		pl, err := w.p.Assign(node(t, w))
		if err != nil {
			t.Fatal(err)
		}
		return pl.Site
	}
	if got := run(100e3); got != "west" { // 100 KB: ~0.5s transfer < 5s install
		t.Errorf("small data ran at %s, want west", got)
	}
	if got := run(100e6); got != "east" { // 100 MB: ~400s transfer > 5s install
		t.Errorf("large data ran at %s, want east", got)
	}
}

func TestShippingModes(t *testing.T) {
	mk := func(mode Mode) string {
		w := buildWorld(t, map[string]string{
			ProfileHomeSites:      "west",
			ProfileInstallSeconds: "5",
		})
		w.p.Mode = mode
		pl, err := w.p.Assign(node(t, w))
		if err != nil {
			t.Fatal(err)
		}
		return pl.Site
	}
	if got := mk(ShipDataToProcedure); got != "west" {
		t.Errorf("ship-data: %s", got)
	}
	if got := mk(ShipProcedureToData); got != "east" {
		t.Errorf("ship-procedure: %s", got)
	}
	if Auto.String() != "auto" || ShipDataToProcedure.String() != "ship-data" || ShipProcedureToData.String() != "ship-procedure" {
		t.Error("mode names")
	}
}

func TestReplicationPolicies(t *testing.T) {
	acc := map[string]int{"west": 3, "east": 1}
	if got := (NoReplication{}).OnAccess("d", 1, "east", "west", acc); got != nil {
		t.Errorf("none: %v", got)
	}
	if got := (CacheAtClient{}).OnAccess("d", 1, "east", "west", acc); len(got) != 1 || got[0] != "west" {
		t.Errorf("cache: %v", got)
	}
	if got := (BestClient{Threshold: 3}).OnAccess("d", 1, "east", "west", acc); len(got) != 1 || got[0] != "west" {
		t.Errorf("best-client: %v", got)
	}
	if got := (BestClient{Threshold: 5}).OnAccess("d", 1, "east", "west", acc); got != nil {
		t.Errorf("best-client below threshold: %v", got)
	}
	if got := (Broadcast{Threshold: 4}).OnAccess("d", 1, "east", "west", acc); len(got) != 2 {
		t.Errorf("broadcast: %v", got)
	}
	if got := (Broadcast{Threshold: 10}).OnAccess("d", 1, "east", "west", acc); got != nil {
		t.Errorf("broadcast below threshold: %v", got)
	}
	combo := CacheAndBestClient{Threshold: 3}.OnAccess("d", 1, "east", "west", acc)
	if len(combo) != 2 {
		t.Errorf("combo: %v", combo)
	}
	if len(Policies(3)) != 6 {
		t.Error("policy sweep size")
	}
}

func TestCachingReducesRepeatTransfers(t *testing.T) {
	// Two consecutive jobs at west consuming raw (east): with caching,
	// the second stages nothing.
	for _, cached := range []bool{false, true} {
		w := buildWorld(t, map[string]string{ProfileHomeSites: "west"})
		if cached {
			w.p.Replication = CacheAtClient{}
		}
		n := node(t, w)
		pl1, err := w.p.Assign(n)
		if err != nil {
			t.Fatal(err)
		}
		if len(pl1.Transfers) != 1 {
			t.Fatalf("first access should transfer")
		}
		// Second derivation consuming raw.
		dv2, err := w.cat.AddDerivation(schema.Derivation{TR: "t", Params: map[string]schema.Actual{
			"o": schema.DatasetActual("output", "cooked2"),
			"i": schema.DatasetActual("input", "raw"),
		}})
		if err != nil {
			t.Fatal(err)
		}
		g2, err := dag.Build([]schema.Derivation{dv2}, w.cat.Resolver())
		if err != nil {
			t.Fatal(err)
		}
		n2, _ := g2.Node(dv2.ID)
		pl2, err := w.p.Assign(n2)
		if err != nil {
			t.Fatal(err)
		}
		wantXfers := 1
		if cached {
			wantXfers = 0
		}
		if len(pl2.Transfers) != wantXfers {
			t.Errorf("cached=%v: second access transfers=%d want %d", cached, len(pl2.Transfers), wantXfers)
		}
	}
}

func TestAccessCounting(t *testing.T) {
	w := buildWorld(t, map[string]string{ProfileHomeSites: "west"})
	if _, err := w.p.Assign(node(t, w)); err != nil {
		t.Fatal(err)
	}
	if got := w.p.AccessCount("raw"); got["west"] != 1 {
		t.Errorf("access count: %v", got)
	}
}

func TestPlanRequestDecisions(t *testing.T) {
	w := buildWorld(t, nil)

	// raw is materialized at east: reuse there, retrieve from west.
	plan, err := w.p.PlanRequest("raw", "east")
	if err != nil || plan.Decision != Reuse {
		t.Errorf("reuse: %+v %v", plan, err)
	}
	plan, err = w.p.PlanRequest("raw", "west")
	if err != nil || plan.Decision != Retrieve || plan.Source != "east" {
		t.Errorf("retrieve: %+v %v", plan, err)
	}
	if plan.EstimatedSeconds <= 0 {
		t.Error("retrieve estimate missing")
	}

	// cooked is virtual: derive.
	plan, err = w.p.PlanRequest("cooked", "east")
	if err != nil || plan.Decision != Derive {
		t.Fatalf("derive: %+v %v", plan, err)
	}
	if len(plan.Derivations) != 1 || plan.Graph == nil || plan.EstimatedSeconds < 100 {
		t.Errorf("derive plan: %+v", plan)
	}

	// Unknown dataset.
	if _, err := w.p.PlanRequest("ghost", "east"); !errors.Is(err, catalog.ErrNotFound) {
		t.Errorf("unknown: %v", err)
	}

	// Underivable and unmaterialized.
	w.cat.AddDataset(schema.Dataset{Name: "orphan"})
	if _, err := w.p.PlanRequest("orphan", "east"); err == nil {
		t.Error("orphan satisfiable")
	}

	// Retrieval beats rederiving when both possible: materialize cooked
	// at west, then request at east.
	if err := w.cat.AddReplica(schema.Replica{ID: "r-c", Dataset: "cooked", Site: "west", PFN: "/c", Size: 1e3}); err != nil {
		t.Fatal(err)
	}
	plan, err = w.p.PlanRequest("cooked", "east")
	if err != nil || plan.Decision != Retrieve || plan.Source != "west" {
		t.Errorf("retrieve-vs-derive: %+v %v", plan, err)
	}
}

func TestEndToEndPlanAndExecute(t *testing.T) {
	w := buildWorld(t, nil)
	plan, err := w.p.PlanRequest("cooked", "east")
	if err != nil || plan.Decision != Derive {
		t.Fatal(err)
	}
	ex := &executor.Executor{Driver: executor.NewSimDriver(w.cl), Catalog: w.cat, Assign: w.p.Assign}
	rep, err := ex.Run(plan.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Succeeded() {
		t.Fatalf("report: %+v", rep)
	}
	if !w.cat.Materialized("cooked") {
		t.Error("cooked not materialized after execution")
	}
	// A repeat request now reuses.
	plan2, err := w.p.PlanRequest("cooked", "east")
	if err != nil || plan2.Decision != Reuse {
		t.Errorf("repeat request: %+v %v", plan2, err)
	}
}

func TestNoFeasibleSite(t *testing.T) {
	w := buildWorld(t, map[string]string{ProfileHomeSites: "mars"})
	if _, err := w.p.Assign(node(t, w)); err == nil {
		t.Error("infeasible pin accepted")
	}
}

// Profile hints come from user-authored VDL; malformed values must
// degrade to "no hint", never silently truncate or crash. In
// particular "5x" must not parse as 5 (the old Sscanf behaviour).
func TestProfileHintParsing(t *testing.T) {
	tr := func(install string) schema.Transformation {
		return schema.Transformation{
			Name: "p", Kind: schema.Simple, Exec: "/bin/p",
			Profile: map[string]string{ProfileInstallSeconds: install},
		}
	}
	installCases := []struct {
		raw  string
		want float64
		ok   bool
	}{
		{"", 0, false},
		{"5", 5, true},
		{" 2.5 ", 2.5, true},
		{"1e2", 100, true},
		{"5x", 0, false},    // trailing garbage
		{"4.2.1", 0, false}, // not a number
		{"-3", 0, false},    // negative cost
		{"NaN", 0, false},
		{"+Inf", 0, false},
		{"seconds", 0, false},
	}
	for _, tc := range installCases {
		got, ok := installCost(tr(tc.raw))
		if got != tc.want || ok != tc.ok {
			t.Errorf("installCost(%q) = %g,%v; want %g,%v", tc.raw, got, ok, tc.want, tc.ok)
		}
	}

	trHome := func(raw string) schema.Transformation {
		return schema.Transformation{
			Name: "p", Kind: schema.Simple, Exec: "/bin/p",
			Profile: map[string]string{ProfileHomeSites: raw},
		}
	}
	homeCases := []struct {
		raw  string
		want []string
	}{
		{"", nil},
		{"east", []string{"east"}},
		{" east , west ", []string{"east", "west"}},
		{",,", nil}, // only separators: no pin, not empty-site pins
		{"east,,west,", []string{"east", "west"}},
	}
	for _, tc := range homeCases {
		got := homeSites(trHome(tc.raw))
		if len(got) != len(tc.want) {
			t.Errorf("homeSites(%q) = %v; want %v", tc.raw, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("homeSites(%q) = %v; want %v", tc.raw, got, tc.want)
				break
			}
		}
	}
}
