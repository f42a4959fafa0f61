package executor

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"chimera/internal/catalog"
	"chimera/internal/dag"
	"chimera/internal/schema"
)

// TestSimDriverRefusesSiteWithoutUpHost keeps Start's answer for every
// kind of site that cannot run a job — unknown, empty, all hosts down —
// now that it reads the site's up-core count instead of searching for
// a host.
func TestSimDriverRefusesSiteWithoutUpHost(t *testing.T) {
	cl, drv := simSetup(t, 2)
	if _, err := cl.Grid.AddSite("empty", 1e15); err != nil {
		t.Fatal(err)
	}
	n := diamondGraph(t).Nodes()[0]
	start := func(site string) error {
		return drv.Start(n, Placement{Site: site, Work: 1}, 0, func(Result) {})
	}
	for _, site := range []string{"nowhere", "empty"} {
		if err := start(site); err == nil || !strings.Contains(err.Error(), "has no hosts") {
			t.Errorf("site %s: %v", site, err)
		}
	}
	cl.FailHost("h-0")
	if err := start("s"); err != nil {
		t.Errorf("one host up: %v", err)
	}
	cl.FailHost("h-1")
	if err := start("s"); err == nil || !strings.Contains(err.Error(), `site "s" has no hosts`) {
		t.Errorf("all hosts down: %v", err)
	}
	cl.RepairHost("h-1")
	if err := start("s"); err != nil {
		t.Errorf("after repair: %v", err)
	}
}

// TestPlacementWaitsResolveBeforeRunReturns checks that Run owes a
// placement's waits like its own records': each is called exactly once
// before Run returns, on the recording pipeline and inline when there
// is no catalog to record in; and the first failure is Run's error.
func TestPlacementWaitsResolveBeforeRunReturns(t *testing.T) {
	// The diamond, registered in a catalog that can record its run.
	recorded := func() (*catalog.Catalog, *dag.Graph) {
		cat := catalog.New(nil)
		for _, tr := range []schema.Transformation{tr1(), tr2()} {
			if err := cat.AddTransformation(tr); err != nil {
				t.Fatal(err)
			}
		}
		var dvs []schema.Derivation
		for _, d := range []schema.Derivation{dv1("a", "b"), dv1("a", "c"), dv2("b", "c", "d")} {
			stored, err := cat.AddDerivation(d)
			if err != nil {
				t.Fatal(err)
			}
			dvs = append(dvs, stored)
		}
		g, err := dag.Build(dvs, cat.Resolver())
		if err != nil {
			t.Fatal(err)
		}
		return cat, g
	}
	lost := errors.New("replica write lost")
	for _, tc := range []struct {
		name    string
		catalog bool
		fail    bool
	}{
		{name: "pipeline", catalog: true},
		{name: "pipeline, a wait fails", catalog: true, fail: true},
		{name: "no catalog"},
		{name: "no catalog, a wait fails", fail: true},
	} {
		_, drv := simSetup(t, 2)
		var mu sync.Mutex
		resolved := make(map[string]int)
		ex := &Executor{Driver: drv, Assign: func(n *dag.Node) (Placement, error) {
			wait := func() error {
				mu.Lock()
				defer mu.Unlock()
				resolved[n.ID]++
				if tc.fail && len(resolved) == 2 {
					return lost
				}
				return nil
			}
			return Placement{Site: "s", Work: 10, Waits: []func() error{wait, wait}}, nil
		}}
		cat, g := recorded()
		if tc.catalog {
			ex.Catalog = cat
		}
		_, err := ex.Run(g)
		if tc.fail != errors.Is(err, lost) {
			t.Errorf("%s: run error %v", tc.name, err)
		}
		mu.Lock()
		for _, n := range g.Nodes() {
			// A failed run stops dispatching; what it did place, it resolved.
			if got := resolved[n.ID]; got != 2 && !(tc.fail && got == 0) {
				t.Errorf("%s: node %s: %d waits resolved, want 2", tc.name, n.ID, got)
			}
		}
		mu.Unlock()
	}
}
