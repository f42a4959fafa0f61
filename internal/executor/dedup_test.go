package executor

import (
	"errors"
	"testing"
	"time"

	"chimera/internal/catalog"
	"chimera/internal/dag"
	"chimera/internal/schema"
)

// dedupWorld builds a catalog holding the chain a -> b -> c (two
// derivations of tr1) with the first derivation already executed, and
// returns the catalog plus the two stored derivations.
func dedupWorld(t *testing.T) (*catalog.Catalog, schema.Derivation, schema.Derivation) {
	t.Helper()
	c := catalog.New(nil)
	if err := c.AddTransformation(tr1()); err != nil {
		t.Fatal(err)
	}
	if err := c.AddDataset(schema.Dataset{Name: "a"}); err != nil {
		t.Fatal(err)
	}
	d1, err := c.AddDerivation(dv1("a", "b"))
	if err != nil {
		t.Fatal(err)
	}
	d2, err := c.AddDerivation(dv1("b", "c"))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddInvocation(schema.Invocation{
		ID: "iv-prior", Derivation: d1.ID, Site: "s", Host: "h1",
		Start: time.Unix(0, 0).UTC(), End: time.Unix(30, 0).UTC(),
	}); err != nil {
		t.Fatal(err)
	}
	return c, d1, d2
}

// TestDedupSkipsExecutedDerivation: with DedupExecuted on, a node whose
// derivation already has a recorded invocation completes from the
// catalog — no dispatch, no new invocation — while its
// never-run successor is unlocked and executes normally.
func TestDedupSkipsExecutedDerivation(t *testing.T) {
	c, d1, d2 := dedupWorld(t)
	g, err := dag.Build([]schema.Derivation{d1, d2}, c.Resolver())
	if err != nil {
		t.Fatal(err)
	}
	_, drv := simSetup(t, 2)
	events := map[string][]string{} // node -> event kinds, in order
	ex := &Executor{
		Driver: drv, Assign: fixedAssign(10), Catalog: c, DedupExecuted: true,
		OnEvent: func(ev Event) { events[ev.Node] = append(events[ev.Node], ev.Kind) },
	}
	rep, err := ex.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Succeeded() || rep.Completed != 2 {
		t.Fatalf("report: %+v", rep)
	}
	// Only d2 paid for execution: makespan is one 10-unit task.
	if rep.Makespan != 10 {
		t.Errorf("makespan %g, want 10", rep.Makespan)
	}
	if got := events[d1.ID]; len(got) != 1 || got[0] != "dedup" {
		t.Fatalf("d1 events %v, want [dedup]", got)
	}
	for _, k := range events[d2.ID] {
		if k == "dedup" {
			t.Fatal("never-run d2 must not dedup")
		}
	}
	v := c.View()
	defer v.Close()
	if n := v.InvocationCount(d1.ID); n != 1 {
		t.Errorf("d1 has %d invocations, want the 1 prior one", n)
	}
	if n := v.InvocationCount(d2.ID); n != 1 {
		t.Errorf("d2 has %d invocations, want 1 recorded by the run", n)
	}
}

// TestDedupOffReexecutes: the flag is opt-in — without it the same
// graph re-runs the executed derivation and records a second
// invocation.
func TestDedupOffReexecutes(t *testing.T) {
	c, d1, d2 := dedupWorld(t)
	g, err := dag.Build([]schema.Derivation{d1, d2}, c.Resolver())
	if err != nil {
		t.Fatal(err)
	}
	_, drv := simSetup(t, 2)
	deduped := 0
	ex := &Executor{
		Driver: drv, Assign: fixedAssign(10), Catalog: c,
		OnEvent: func(ev Event) {
			if ev.Kind == "dedup" {
				deduped++
			}
		},
	}
	rep, err := ex.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Succeeded() || rep.Completed != 2 || deduped != 0 {
		t.Fatalf("report %+v, deduped %d", rep, deduped)
	}
	if rep.Makespan != 20 {
		t.Errorf("makespan %g, want 20 (both nodes executed)", rep.Makespan)
	}
	v := c.View()
	defer v.Close()
	if n := v.InvocationCount(d1.ID); n != 2 {
		t.Errorf("d1 has %d invocations, want 2 (prior + re-run)", n)
	}
}

// TestDedupWholeGraph: when every derivation has already run, the run
// completes instantly — dedup'd roots synchronously unlock dedup'd
// successors — and an Assign that would reject any placement proves no
// node was placed.
func TestDedupWholeGraph(t *testing.T) {
	c, d1, d2 := dedupWorld(t)
	if err := c.AddInvocation(schema.Invocation{
		ID: "iv-prior2", Derivation: d2.ID, Site: "s", Host: "h1",
		Start: time.Unix(40, 0).UTC(), End: time.Unix(70, 0).UTC(),
	}); err != nil {
		t.Fatal(err)
	}
	g, err := dag.Build([]schema.Derivation{d1, d2}, c.Resolver())
	if err != nil {
		t.Fatal(err)
	}
	_, drv := simSetup(t, 1)
	ex := &Executor{
		Driver: drv, Catalog: c, DedupExecuted: true,
		Assign: func(n *dag.Node) (Placement, error) {
			return Placement{}, errors.New("no node may be placed")
		},
	}
	rep, err := ex.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Succeeded() || rep.Completed != 2 || rep.Makespan != 0 {
		t.Fatalf("report: %+v", rep)
	}
}
