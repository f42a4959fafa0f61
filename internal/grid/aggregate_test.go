package grid

import (
	"fmt"
	"math/rand"
	"testing"
)

// checkAggregates recomputes every site's counters from its host list —
// the walks SiteLoad, BusyCores, FreeCores, QueueDepth and the
// planner's meanSpeed and pendingLoad did before the counters existed —
// and compares them with what the site carries.
func checkAggregates(t *testing.T, c *Cluster, step string) {
	t.Helper()
	for _, s := range c.Grid.SiteList() {
		cores, upCores, busy, queued := 0, 0, 0, 0
		speedSum := 0.0
		for _, h := range s.Hosts {
			cores += h.Cores
			speedSum += h.Speed
			if h.down {
				continue
			}
			upCores += h.Cores
			busy += h.busy
			queued += len(h.queue)
		}
		if s.cores != cores || s.upCores != upCores || s.busy != busy || s.queued != queued || s.speedSum != speedSum {
			t.Fatalf("%s: site %s carries cores=%d up=%d busy=%d queued=%d speed=%v, hosts give %d %d %d %d %v",
				step, s.Name, s.cores, s.upCores, s.busy, s.queued, s.speedSum, cores, upCores, busy, queued, speedSum)
		}
		if got := c.Grid.BusyCores(s.Name); got != busy {
			t.Fatalf("%s: BusyCores(%s) = %d, want %d", step, s.Name, got, busy)
		}
		if got := c.Grid.FreeCores(s.Name); got != upCores-busy {
			t.Fatalf("%s: FreeCores(%s) = %d, want %d", step, s.Name, got, upCores-busy)
		}
		if got := c.Grid.QueueDepth(s.Name); got != queued {
			t.Fatalf("%s: QueueDepth(%s) = %d, want %d", step, s.Name, got, queued)
		}
		wantLoad := 0.0
		switch {
		case len(s.Hosts) == 0:
		case upCores == 0:
			wantLoad = 1e9
		default:
			wantLoad = float64(busy+queued) / float64(upCores)
		}
		if got := c.SiteLoad(s.Name); got != wantLoad {
			t.Fatalf("%s: SiteLoad(%s) = %v, want %v", step, s.Name, got, wantLoad)
		}
		wantSpeed := 1.0
		if len(s.Hosts) > 0 {
			wantSpeed = speedSum / float64(len(s.Hosts))
		}
		if got := s.MeanSpeed(); got != wantSpeed {
			t.Fatalf("%s: MeanSpeed(%s) = %v, want %v", step, s.Name, got, wantSpeed)
		}
	}
}

// TestSiteAggregateInvariants drives a seeded random history of every
// call that writes the aggregates and checks them after each step.
func TestSiteAggregateInvariants(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := NewGrid()
		sim := NewSim(seed)
		c := NewCluster(g, sim)
		sites := []string{"a", "b", "c", "empty"}
		for _, s := range sites {
			if _, err := g.AddSite(s, 1e12); err != nil {
				t.Fatal(err)
			}
		}
		var hosts []string
		addHost := func(site string) {
			name := fmt.Sprintf("%s-%d", site, len(hosts))
			if _, err := g.AddHost(site, name, 0.5+rng.Float64(), 1+rng.Intn(3)); err != nil {
				t.Fatal(err)
			}
			hosts = append(hosts, name)
		}
		for _, s := range sites[:3] {
			addHost(s)
		}
		checkAggregates(t, c, "initial")

		jobs := 0
		for i := 0; i < 2000; i++ {
			host := hosts[rng.Intn(len(hosts))]
			var step string
			switch op := rng.Intn(20); {
			case op == 0 && len(hosts) < 12:
				step = "AddHost"
				addHost(sites[rng.Intn(3)])
			case op < 10:
				step = "Submit " + host
				jobs++
				h, _ := g.Host(host)
				err := c.Submit(host, &Job{ID: fmt.Sprint("j", jobs), Work: 1 + 20*rng.Float64()})
				if (err != nil) != h.down {
					t.Fatalf("seed %d step %d: submit to %s (down=%v): %v", seed, i, host, h.down, err)
				}
			case op < 15:
				step = "Step"
				sim.Step() // a completion, or a failed job's report
			case op < 18:
				step = "FailHost " + host // running and queued jobs, or already down
				if err := c.FailHost(host); err != nil {
					t.Fatal(err)
				}
			default:
				step = "RepairHost " + host // down or up
				if err := c.RepairHost(host); err != nil {
					t.Fatal(err)
				}
			}
			checkAggregates(t, c, fmt.Sprintf("seed %d step %d %s", seed, i, step))
		}
		for _, h := range hosts {
			c.RepairHost(h)
		}
		sim.Run()
		checkAggregates(t, c, "drained")
		for _, s := range g.SiteList() {
			if s.busy != 0 || s.queued != 0 || s.upCores != s.cores {
				t.Fatalf("seed %d: site %s not idle after the drain: %+v", seed, s.Name, s)
			}
		}
	}
}

// TestAllDownSiteLoad pins the 1e9 an all-down site reports and the 0
// of a site that never had hosts, through a double FailHost.
func TestAllDownSiteLoad(t *testing.T) {
	g := NewGrid()
	g.AddSite("s", 1e12)
	g.AddSite("empty", 1e12)
	g.AddHosts("s", "s", 2, 1, 2)
	c := NewCluster(g, NewSim(1))
	for i := 0; i < 6; i++ {
		c.Submit("s-0", &Job{ID: fmt.Sprint(i), Work: 10})
	}
	for _, h := range []string{"s-0", "s-1", "s-0"} {
		if err := c.FailHost(h); err != nil {
			t.Fatal(err)
		}
		checkAggregates(t, c, "fail "+h)
	}
	s, _ := g.Site("s")
	if c.SiteLoad("s") != 1e9 || s.UpCores() != 0 || s.Cores() != 4 {
		t.Errorf("all-down site: load %v, up cores %d, cores %d", c.SiteLoad("s"), s.UpCores(), s.Cores())
	}
	if c.SiteLoad("empty") != 0 || c.SiteLoad("ghost") != 0 {
		t.Errorf("empty site load %v, unknown site load %v", c.SiteLoad("empty"), c.SiteLoad("ghost"))
	}
}

// TestSiteListSortedAndStable checks the cached site lists: sorted by
// name whatever the insertion order, and a slice handed out earlier is
// not rewritten by a later AddSite.
func TestSiteListSortedAndStable(t *testing.T) {
	g := NewGrid()
	for _, n := range []string{"m", "z", "a"} {
		g.AddSite(n, 1)
	}
	before := g.SiteList()
	g.AddSite("b", 1)
	if len(before) != 3 || before[0].Name != "a" || before[1].Name != "m" || before[2].Name != "z" {
		t.Errorf("earlier slice changed: %v", before)
	}
	if fmt.Sprint(g.Sites()) != "[a b m z]" {
		t.Errorf("sites: %v", g.Sites())
	}
	for i, s := range g.SiteList() {
		if s.Name != g.Sites()[i] {
			t.Errorf("SiteList[%d] = %s, Sites[%d] = %s", i, s.Name, i, g.Sites()[i])
		}
	}
	// Links are found from either end, and only between linked sites.
	if err := g.Connect("z", "a", 1e6, 0, 1); err != nil {
		t.Fatal(err)
	}
	a, _ := g.Site("a")
	b, _ := g.Site("b")
	z, _ := g.Site("z")
	if a.LinkTo(z) == nil || a.LinkTo(z) != z.LinkTo(a) || a.LinkTo(b) != nil || b.LinkTo(z) != nil || a.LinkTo(a) != nil {
		t.Error("LinkTo disagrees with Connect")
	}
	if _, ok := g.Link("a", "ghost"); ok {
		t.Error("link to an unknown site")
	}
}
