package core

import (
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"chimera/internal/catalog"
	"chimera/internal/executor"
	"chimera/internal/grid"
	"chimera/internal/schema"
	"chimera/internal/vds"
	"chimera/internal/workload"
)

const pipelineVDL = `
TYPE content Events;
TYPE content Raw extends Events;
DS source<Raw> size "1000000";
TR cook( output o, input i ) {
  argument stdin = ${input:i};
  argument stdout = ${output:o};
  exec = "/bin/cook";
}
TR doublecook( input i, inout mid=@{inout:"mid":""}, output o ) {
  cook( o=${output:mid}, i=${i} );
  cook( o=${o}, i=${input:mid} );
}
DV first->doublecook( i=@{input:"source"}, o=@{output:"refined"} );
`

func newSimSystem(t *testing.T) *System {
	t.Helper()
	g := grid.NewGrid()
	if _, err := g.AddSite("s", 1e15); err != nil {
		t.Fatal(err)
	}
	if err := g.AddHosts("s", "h", 4, 1.0, 1); err != nil {
		t.Fatal(err)
	}
	return NewSimulated("test", g, 11, nil)
}

func TestLoadVDLExpandsCompounds(t *testing.T) {
	s := newSimSystem(t)
	if err := s.LoadVDL(pipelineVDL); err != nil {
		t.Fatal(err)
	}
	st := s.Cat.Stats()
	// Compound derivation expands to 2 simple leaves.
	if st.Derivations != 2 {
		t.Errorf("derivations: %d", st.Derivations)
	}
	// refined is derived; its ancestry includes source and the
	// generated intermediate.
	anc, err := s.Cat.Ancestors("refined")
	if err != nil {
		t.Fatal(err)
	}
	if len(anc.Datasets) != 2 || anc.Datasets[1] != "source" && anc.Datasets[0] != "source" {
		t.Errorf("ancestors: %v", anc.Datasets)
	}
	// Types landed.
	res, err := s.SearchDatasets(`type <= Events`)
	if err != nil || len(res) != 1 || res[0].Name != "source" {
		t.Errorf("type search: %v %v", res, err)
	}
}

// TestDefineIsOneBatch: Define stores a compound's leaves all or none.
// Here the second leaf would produce a dataset another derivation
// already produces, so the first leaf must not stay behind either.
func TestDefineIsOneBatch(t *testing.T) {
	s := newSimSystem(t)
	if err := s.LoadVDL(pipelineVDL + `DV other->cook( i=@{input:"elsewhere"}, o=@{output:"taken"} );`); err != nil {
		t.Fatal(err)
	}
	before := s.Cat.Export()
	_, err := s.Define(schema.Derivation{TR: "doublecook", Params: map[string]schema.Actual{
		"i": schema.DatasetActual("input", "source"),
		"o": schema.DatasetActual("output", "taken"),
	}})
	if !errors.Is(err, catalog.ErrConflict) {
		t.Fatalf("want a provenance conflict on the second leaf, got %v", err)
	}
	if after := s.Cat.Export(); !reflect.DeepEqual(after, before) {
		t.Fatalf("refused Define changed the catalog: now %+v", s.Cat.Stats())
	}

	// Accepted, it returns the stored leaves; again, the same leaves.
	dv := schema.Derivation{TR: "doublecook", Params: map[string]schema.Actual{
		"i": schema.DatasetActual("input", "source"),
		"o": schema.DatasetActual("output", "fresh"),
	}}
	leaves, err := s.Define(dv)
	if err != nil || len(leaves) != 2 || leaves[0].Parent == "" || leaves[1].TR != "cook" {
		t.Fatalf("Define: %+v %v", leaves, err)
	}
	again, err := s.Define(dv)
	if err != nil || !reflect.DeepEqual(again, leaves) {
		t.Fatalf("repeated Define: %+v %v, want %+v", again, err, leaves)
	}
}

func TestMaterializeSimulated(t *testing.T) {
	s := newSimSystem(t)
	if err := s.LoadVDL(pipelineVDL); err != nil {
		t.Fatal(err)
	}
	if err := s.Cat.AddReplica(schema.Replica{ID: "r0", Dataset: "source", Site: "s", PFN: "/src", Size: 1e6}); err != nil {
		t.Fatal(err)
	}
	res, err := s.Materialize("refined")
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Reused || res[0].Report.Completed != 2 {
		t.Fatalf("result: %+v", res[0])
	}
	if !s.Cat.Materialized("refined") {
		t.Error("target not materialized")
	}
	// Estimator learned from the run.
	if _, confident := s.Est.Work("cook"); !confident {
		t.Error("estimator not updated")
	}
	// Re-request: pure reuse.
	res, err = s.Materialize("refined")
	if err != nil || !res[0].Reused {
		t.Errorf("reuse: %+v %v", res, err)
	}
	// Lineage reflects the executed invocations.
	lin, err := s.Lineage("refined")
	if err != nil {
		t.Fatal(err)
	}
	if len(lin.Steps) != 2 || len(lin.Steps[0].Invocations) != 1 {
		t.Errorf("lineage: %+v", lin)
	}
}

func TestMaterializeManyTargetsShareWork(t *testing.T) {
	s := newSimSystem(t)
	w := workload.CMS(workload.CMSParams{Runs: 3})
	if err := w.Install(s.Cat); err != nil {
		t.Fatal(err)
	}
	res, err := s.Materialize(w.Targets...)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Reused {
			t.Errorf("%s unexpectedly reused", r.Target)
		}
	}
	if got := len(s.Cat.Invocations()); got != 12 {
		t.Errorf("invocations: %d", got)
	}
}

func TestEstimate(t *testing.T) {
	s := newSimSystem(t)
	if err := s.LoadVDL(pipelineVDL); err != nil {
		t.Fatal(err)
	}
	est, err := s.Estimate("refined", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Two nodes at the 60s default prior, serial chain.
	if est.TotalWork != 120 || est.Makespan != 120 {
		t.Errorf("estimate: %+v", est)
	}
	if est.Confident {
		t.Error("prior-based estimate claims confidence")
	}
	if _, err := s.Estimate("ghost", 1); err == nil {
		t.Error("unknown target accepted")
	}
}

func TestInvalidate(t *testing.T) {
	s := newSimSystem(t)
	if err := s.LoadVDL(pipelineVDL); err != nil {
		t.Fatal(err)
	}
	cl, err := s.Invalidate("source")
	if err != nil {
		t.Fatal(err)
	}
	if len(cl.Datasets) != 2 { // mid.<suffix> and refined
		t.Errorf("invalidation set: %v", cl.Datasets)
	}
}

func TestLocalModeEndToEnd(t *testing.T) {
	ws := t.TempDir()
	s := NewLocal("laptop", ws, nil)
	if err := s.LoadVDL(pipelineVDL); err != nil {
		t.Fatal(err)
	}
	if err := s.Register("cook", func(task executor.Task) error {
		data, err := os.ReadFile(filepath.Join(task.Workspace, task.Node.Inputs[0]))
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(task.Workspace, task.Node.Outputs[0]),
			[]byte(strings.ToUpper(string(data))), 0o644)
	}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(ws, "source"), []byte("events"), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := s.Materialize("refined")
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Reused || res[0].Report.Completed != 2 {
		t.Fatalf("local run: %+v", res[0])
	}
	data, err := os.ReadFile(filepath.Join(ws, "refined"))
	if err != nil || string(data) != "EVENTS" {
		t.Errorf("pipeline output: %q %v", data, err)
	}
	// Register on a sim system fails.
	if err := newSimSystem(t).Register("x", nil); err == nil {
		t.Error("Register on sim system accepted")
	}
}

func TestHandlerSharing(t *testing.T) {
	s := newSimSystem(t)
	if err := s.LoadVDL(pipelineVDL); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	client := vds.NewClient(hs.URL)
	info, err := client.Info()
	if err != nil || info.Name != "test" || info.Stats.Derivations != 2 {
		t.Errorf("shared info: %+v %v", info, err)
	}

	// Another system imports the transformation via vdp.
	other := newSimSystem(t)
	reg := vds.NewRegistry()
	reg.Register("test", hs.URL)
	tr, err := other.ImportTransformation(reg, "vdp://test/cook")
	if err != nil || tr.Name != "cook" {
		t.Fatalf("import: %+v %v", tr, err)
	}
	if _, err := other.Cat.Transformation("cook"); err != nil {
		t.Error("imported TR not in catalog")
	}
}

func TestNewWithCatalogDurable(t *testing.T) {
	dir := t.TempDir()
	cat, err := catalog.Open(filepath.Join(dir, "cat"), nil, catalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewWithCatalog("durable", dir, cat)
	if err := s.LoadVDL(pipelineVDL); err != nil {
		t.Fatal(err)
	}
	if err := cat.Close(); err != nil {
		t.Fatal(err)
	}
	cat2, err := catalog.Open(filepath.Join(dir, "cat"), nil, catalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cat2.Close()
	if cat2.Stats().Derivations != 2 {
		t.Errorf("durable reopen: %+v", cat2.Stats())
	}
}

func TestMaterializeFailurePropagates(t *testing.T) {
	ws := t.TempDir()
	s := NewLocal("laptop", ws, nil)
	if err := s.LoadVDL(pipelineVDL); err != nil {
		t.Fatal(err)
	}
	s.Register("cook", func(executor.Task) error { return fmt.Errorf("no such calibration") })
	os.WriteFile(filepath.Join(ws, "source"), []byte("x"), 0o644)
	if _, err := s.Materialize("refined"); err == nil {
		t.Error("failed workflow reported success")
	}
}

// TestMaterializationPlanUnderConcurrentWriters is the deadlock
// regression for the View callback: planning runs its materialized
// predicate while it holds the catalog's View (every shard's read
// lock), and a writer waiting for that View blocks every new read lock
// on its shards. The planner's real callbacks (materializedOrLocal,
// Estimate's predicate)
// must therefore read through the View; one that called a locked
// Catalog method would hang here against 8 concurrent writers on a
// durable catalog.
func TestMaterializationPlanUnderConcurrentWriters(t *testing.T) {
	const chain, writers, perWriter = 12, 8, 150
	dir := t.TempDir()
	cat, err := catalog.Open(filepath.Join(dir, "cat"), nil, catalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := NewWithCatalog("storm", dir, cat)
	var vdlSrc strings.Builder
	vdlSrc.WriteString("TYPE content Events;\nDS src0<Events> size \"1\";\n")
	vdlSrc.WriteString("TR step( output o, input i ) {\n  argument stdin = ${input:i};\n  argument stdout = ${output:o};\n  exec = \"/bin/step\";\n}\n")
	for i := 1; i <= chain; i++ {
		fmt.Fprintf(&vdlSrc, "DV s%d->step( i=@{input:\"src%d\"}, o=@{output:\"src%d\"} );\n", i, i-1, i)
	}
	if err := s.LoadVDL(vdlSrc.String()); err != nil {
		t.Fatal(err)
	}
	target := fmt.Sprintf("src%d", chain)

	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					name := fmt.Sprintf("w%d-%d", w, i)
					if err := cat.AddDataset(schema.Dataset{Name: name}); err != nil {
						t.Error(err)
						return
					}
					if err := cat.AddReplica(schema.Replica{ID: "r-" + name, Dataset: name, Site: "s", PFN: "/" + name}); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		stop := make(chan struct{})
		planned := make(chan struct{})
		go func() {
			defer close(planned)
			for {
				select {
				case <-stop:
					return
				default:
				}
				dvs, err := cat.MaterializationPlan(target, s.materializedOrLocal)
				if err != nil || len(dvs) != chain {
					t.Errorf("plan: %d derivations, %v; want %d", len(dvs), err, chain)
					return
				}
				if _, err := s.Estimate(target, 1); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		wg.Wait()
		close(stop)
		<-planned
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		// Not closing the catalog: a deadlocked one would hang Close too.
		t.Fatal("planning against concurrent writers did not finish: a materialized callback blocked on a shard lock while its View was open")
	}
	if err := cat.Close(); err != nil {
		t.Fatal(err)
	}
}
