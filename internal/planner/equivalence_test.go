package planner

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"chimera/internal/catalog"
	"chimera/internal/dag"
	"chimera/internal/estimator"
	"chimera/internal/executor"
	"chimera/internal/grid"
	"chimera/internal/replica"
	"chimera/internal/schema"
)

// sortedPolicy makes a policy's answer independent of map iteration
// order (Broadcast ranges over the access map), so that two worlds fed
// the same history create the same replicas in the same order.
type sortedPolicy struct{ ReplicationPolicy }

func (s sortedPolicy) OnAccess(ds string, size int64, from, by string, accesses map[string]int) []string {
	out := s.ReplicationPolicy.OnAccess(ds, size, from, by, accesses)
	sort.Strings(out)
	return out
}

// eqVariant is one configuration of the equivalence sweep.
type eqVariant struct {
	hierarchical bool
	mode         Mode
	classWeights bool
	policy       int // index into Policies, -1 for nil
	economy      bool
	noPending    bool
}

func (v eqVariant) String() string {
	return fmt.Sprintf("hier=%v/mode=%v/weights=%v/policy=%d/economy=%v/noPending=%v",
		v.hierarchical, v.mode, v.classWeights, v.policy, v.economy, v.noPending)
}

type eqWorld struct {
	p     *Planner
	cat   *catalog.Catalog
	cl    *grid.Cluster
	nodes []*dag.Node
	hosts []string
}

// buildEqWorld builds one world from the seed alone: two calls with the
// same arguments give two independent, identical worlds.
func buildEqWorld(t *testing.T, seed int64, v eqVariant) *eqWorld {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var g *grid.Grid
	if v.hierarchical {
		// Every other seed has uniform hosts, so that idle sites tie on
		// cost and the tie-break decides.
		var err error
		g, err = grid.HierarchicalTestbed(grid.HierarchyParams{
			Regions: 2, SitesPerRegion: 3, Hosts: 6 * (5 + rng.Intn(5)), Cores: 1 + rng.Intn(2),
			SpeedSpread: 0.3 * float64(seed%2), Seed: seed, StoragePerSite: 40e6,
		})
		if err != nil {
			t.Fatal(err)
		}
	} else {
		g = grid.NewGrid()
		n := 3 + rng.Intn(4)
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("s%d", i)
			if _, err := g.AddSite(name, int64(20e6+rng.Float64()*60e6)); err != nil {
				t.Fatal(err)
			}
			// Now and then a site with no hosts at all.
			for h, hosts := 0, rng.Intn(6); h < hosts; h++ {
				if _, err := g.AddHost(name, fmt.Sprintf("%s-h%d", name, h), 0.5+rng.Float64(), 1+rng.Intn(3)); err != nil {
					t.Fatal(err)
				}
			}
		}
		// A random partial mesh: some pairs stay unlinked.
		classes := []string{"", grid.ClassRegional, grid.ClassTransatlantic}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(5) == 0 {
					continue
				}
				err := g.ConnectClass(fmt.Sprintf("s%d", i), fmt.Sprintf("s%d", j), classes[rng.Intn(3)],
					1e6+rng.Float64()*50e6, rng.Float64()*0.2, rng.Intn(5))
				if err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	sites := g.Sites()
	var hosts []string
	for _, s := range sites {
		hosts = append(hosts, g.HostNames(s)...)
	}

	cat := catalog.New(nil)
	est := estimator.New(50 + 100*rng.Float64())
	pick := func() string { return sites[rng.Intn(len(sites))] }

	// Transformations with one to three inputs and every kind of
	// home-site and install profile.
	var trs []schema.Transformation
	for i := 0; i < 8; i++ {
		profile := map[string]string{}
		switch rng.Intn(4) {
		case 0:
			profile[ProfileHomeSites] = pick()
		case 1:
			profile[ProfileHomeSites] = pick() + ", " + pick()
		case 2:
			profile[ProfileHomeSites] = "nowhere," + pick() // a home the grid does not know
		}
		switch rng.Intn(4) {
		case 0:
			profile[ProfileInstallSeconds] = fmt.Sprint(rng.Intn(100))
		case 1:
			profile[ProfileInstallSeconds] = "5x" // malformed: immovable
		}
		tr := schema.Transformation{Name: fmt.Sprintf("t%d", i), Kind: schema.Simple, Exec: "/bin/t",
			Profile: profile, Args: []schema.FormalArg{{Name: "o", Direction: schema.Out}}}
		for a, ins := 0, 1+rng.Intn(3); a < ins; a++ {
			tr.Args = append(tr.Args, schema.FormalArg{Name: fmt.Sprintf("i%d", a), Direction: schema.In})
		}
		if err := cat.AddTransformation(tr); err != nil {
			t.Fatal(err)
		}
		if rng.Intn(3) > 0 {
			est.Observe(tr.Ref(), 10+200*rng.Float64(), 0, int64(rng.Float64()*5e6), true)
		}
		trs = append(trs, tr)
	}

	// Primary datasets: sized or not, at one to three sites, now and
	// then at a site outside the grid.
	var primaries []string
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("raw%d", i)
		ds := schema.Dataset{Name: name}
		if rng.Intn(4) > 0 {
			ds.Size = int64(1e6 + rng.Float64()*15e6)
		}
		if err := cat.AddDataset(ds); err != nil {
			t.Fatal(err)
		}
		for r, reps := 0, 1+rng.Intn(3); r < reps; r++ {
			site := pick()
			if rng.Intn(10) == 0 {
				site = "offgrid"
			}
			rep := schema.Replica{ID: fmt.Sprintf("r-%s-%d", name, r), Dataset: name, Site: site, PFN: "/" + name}
			if rng.Intn(3) > 0 {
				rep.Size = int64(1e6 + rng.Float64()*15e6)
			}
			if err := cat.AddReplica(rep); err != nil {
				t.Fatal(err)
			}
		}
		primaries = append(primaries, name)
	}

	var dvs []schema.Derivation
	for i := 0; i < 30; i++ {
		tr := trs[rng.Intn(len(trs))]
		params := map[string]schema.Actual{"o": schema.DatasetActual("output", fmt.Sprintf("out%d", i))}
		for _, a := range tr.Args[1:] {
			params[a.Name] = schema.DatasetActual("input", primaries[rng.Intn(len(primaries))])
		}
		dv, err := cat.AddDerivation(schema.Derivation{TR: tr.Ref(), Params: params})
		if err != nil {
			t.Fatal(err)
		}
		dvs = append(dvs, dv)
	}
	graph, err := dag.Build(dvs, cat.Resolver())
	if err != nil {
		t.Fatal(err)
	}

	cl := grid.NewCluster(g, grid.NewSim(seed))
	p := New(cat, est, cl)
	p.Mode = v.mode
	p.DisablePendingLoad = v.noPending
	p.NoiseAmp = 0.1
	if v.classWeights {
		p.LinkClassWeight = map[string]float64{grid.ClassTransatlantic: 4, grid.ClassRegional: 1.5, grid.ClassLocal: 0.5}
	}
	pop := replica.NewPopularity(500)
	p.Pop = pop
	p.SimNow = cl.Sim.Now
	p.EconomyEviction = v.economy
	if v.policy >= 0 {
		pol := Policies(2)[v.policy]
		if _, ok := pol.(PopularityDriven); ok {
			pol = PopularityDriven{Pop: pop, Now: cl.Sim.Now, Threshold: 2}
		}
		p.Replication = sortedPolicy{pol}
	}
	return &eqWorld{p: p, cat: cat, cl: cl, nodes: graph.Nodes(), hosts: hosts}
}

// state is everything a placement may have written: catalog replicas,
// storage reservations, access counts, pending counts, WAN traffic.
func (w *eqWorld) state() string {
	var out []string
	for _, ds := range w.cat.Datasets() {
		reps := w.cat.ReplicasOf(ds.Name)
		sort.Slice(reps, func(i, j int) bool { return reps[i].ID < reps[j].ID })
		out = append(out, fmt.Sprintf("%s: %+v accesses %v", ds.Name, reps, w.p.AccessCount(ds.Name)))
	}
	for _, s := range w.cl.Grid.SiteList() {
		out = append(out, fmt.Sprintf("%s: used %d pending %d", s.Name, s.Storage.Used(), w.p.pending[s]))
	}
	out = append(out, fmt.Sprintf("wan %d local %d now %v", w.cl.TransferredBytes, w.cl.LocalBytes, w.cl.Sim.Now()))
	return fmt.Sprint(out)
}

// TestAssignMatchesNaive drives one random history of placements, load,
// host failures and repairs through two identical worlds — Assign in
// one, the host-walking reference in the other — and requires identical
// placements at every step and identical state at the end.
func TestAssignMatchesNaive(t *testing.T) {
	var variants []eqVariant
	for _, hier := range []bool{false, true} {
		for _, mode := range []Mode{Auto, ShipDataToProcedure, ShipProcedureToData} {
			for policy := -1; policy < len(Policies(2)); policy++ {
				variants = append(variants, eqVariant{
					hierarchical: hier, mode: mode, policy: policy,
					classWeights: policy%2 == 0, economy: policy%3 == 0, noPending: policy == 1,
				})
			}
		}
	}
	placed, failed := 0, 0
	for vi, v := range variants {
		for seed := int64(1); seed <= 4; seed++ {
			seed := seed*100 + int64(vi)
			got, want := buildEqWorld(t, seed, v), buildEqWorld(t, seed, v)
			if got.state() != want.state() {
				t.Fatalf("%v seed %d: the two worlds differ before the first step", v, seed)
			}
			rng := rand.New(rand.NewSource(seed))
			var assigned []string
			for step := 0; step < 150; step++ {
				switch op := rng.Intn(10); {
				case op < 5:
					n := got.nodes[rng.Intn(len(got.nodes))]
					pg, errG := got.p.Assign(n)
					pw, errW := naiveAssign(want.p, want.nodes[indexOf(got.nodes, n)])
					if fmt.Sprint(errG) != fmt.Sprint(errW) {
						t.Fatalf("%v seed %d step %d node %s: error %v, reference %v", v, seed, step, n.ID, errG, errW)
					}
					pg.Waits = nil // in-memory catalog: nothing to wait for
					if !reflect.DeepEqual(pg, pw) {
						t.Fatalf("%v seed %d step %d node %s:\n  got  %+v\n  want %+v", v, seed, step, n.ID, pg, pw)
					}
					if errG == nil {
						placed++
						assigned = append(assigned, pg.Site)
					} else {
						failed++
					}
				case op < 7 && len(got.hosts) > 0:
					host := got.hosts[rng.Intn(len(got.hosts))]
					work := 10 + 500*rng.Float64()
					for _, w := range []*eqWorld{got, want} {
						w.cl.Submit(host, &grid.Job{ID: fmt.Sprint("bg", step), Work: work})
					}
				case op == 7 && len(got.hosts) > 0:
					host := got.hosts[rng.Intn(len(got.hosts))]
					repair := rng.Intn(3) == 0
					for _, w := range []*eqWorld{got, want} {
						if repair {
							w.cl.RepairHost(host)
						} else {
							w.cl.FailHost(host)
						}
					}
				case op == 8:
					for _, w := range []*eqWorld{got, want} {
						for i := 0; i < 3; i++ {
							w.cl.Sim.Step()
						}
					}
				case len(assigned) > 0:
					ev := executor.Event{Kind: "done", Result: executor.Result{Site: assigned[0]}}
					assigned = assigned[1:]
					for _, w := range []*eqWorld{got, want} {
						w.p.OnEvent(ev)
					}
				}
			}
			got.cl.Sim.Run()
			want.cl.Sim.Run()
			if g, w := got.state(), want.state(); g != w {
				t.Fatalf("%v seed %d: final state differs:\n  got  %s\n  want %s", v, seed, g, w)
			}
		}
	}
	// The sweep is only worth something if it places most nodes and
	// still meets infeasible ones.
	if placed < 2000 || failed == 0 {
		t.Errorf("sweep placed %d nodes and failed %d: not the mix it was built for", placed, failed)
	}
	t.Logf("%d placements, %d infeasible", placed, failed)
}

func indexOf(nodes []*dag.Node, n *dag.Node) int {
	for i, m := range nodes {
		if m == n {
			return i
		}
	}
	return -1
}
