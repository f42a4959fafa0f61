package catalog

import (
	"fmt"
	"sync"
	"testing"

	"chimera/internal/dtype"
	"chimera/internal/schema"
)

func idxTR(name string) schema.Transformation {
	return schema.Transformation{
		Namespace: "ix", Name: name, Kind: schema.Simple, Exec: "/bin/" + name,
		Args: []schema.FormalArg{
			{Name: "out", Direction: schema.Out},
			{Name: "in", Direction: schema.In},
		},
	}
}

func idxDV(t testing.TB, c *Catalog, tr, in, out string) schema.Derivation {
	t.Helper()
	dv, err := c.AddDerivation(schema.Derivation{TR: tr, Params: map[string]schema.Actual{
		"out": schema.DatasetActual("output", out),
		"in":  schema.DatasetActual("input", in),
	}})
	if err != nil {
		t.Fatal(err)
	}
	return dv
}

func mustCheck(t testing.TB, c *Catalog, stage string) {
	t.Helper()
	if err := c.CheckIndexes(); err != nil {
		t.Fatalf("after %s: %v", stage, err)
	}
}

// TestIndexMaintenance drives every mutation through the public API and
// verifies after each step that the incrementally maintained indexes
// equal a from-scratch rebuild.
func TestIndexMaintenance(t *testing.T) {
	c := New(nil)
	if err := c.DefineType(dtype.Content, "blob", ""); err != nil {
		t.Fatal(err)
	}
	if err := c.DefineType(dtype.Content, "image", "blob"); err != nil {
		t.Fatal(err)
	}
	mustCheck(t, c, "DefineType")

	if err := c.AddDataset(schema.Dataset{
		Name: "a", Type: dtype.Type{Content: "image"},
		Attrs: schema.Attributes{"owner": "kim", "run": "1"},
	}); err != nil {
		t.Fatal(err)
	}
	mustCheck(t, c, "AddDataset")

	// Attribute and type change on update.
	if err := c.UpdateDataset(schema.Dataset{
		Name: "a", Type: dtype.Type{Content: "blob"},
		Attrs: schema.Attributes{"owner": "lee"},
	}); err != nil {
		t.Fatal(err)
	}
	mustCheck(t, c, "UpdateDataset")
	v := c.View()
	if v.DatasetsByAttr("owner", "kim").Has("a") || !v.DatasetsByAttr("owner", "lee").Has("a") {
		t.Error("attr index not updated on UpdateDataset")
	}
	if v.DatasetsByAttr("run", "1").Has("a") {
		t.Error("dropped attribute still indexed")
	}
	if !v.DatasetsByType(dtype.Type{Content: "blob"}).Has("a") {
		t.Error("type index not updated")
	}
	v.Close()

	if err := c.AddTransformation(idxTR("gen")); err != nil {
		t.Fatal(err)
	}
	mustCheck(t, c, "AddTransformation")

	dv := idxDV(t, c, "ix::gen", "a", "b")
	mustCheck(t, c, "AddDerivation")
	v = c.View()
	if !v.DerivedDatasets().Has("b") {
		t.Error("auto-registered output not in derived set")
	}
	if !v.DerivationsByTR("ix::gen").Has(dv.ID) {
		t.Error("derivation missing from tr index")
	}
	if v.HasInvocations(dv.ID) {
		t.Error("unexecuted derivation in executed set")
	}
	v.Close()

	if err := c.AddInvocation(schema.Invocation{ID: "iv1", Derivation: dv.ID}); err != nil {
		t.Fatal(err)
	}
	mustCheck(t, c, "AddInvocation")
	if !c.HasInvocations(dv.ID) || c.InvocationCount(dv.ID) != 1 {
		t.Error("HasInvocations/InvocationCount after AddInvocation")
	}

	if err := c.AddReplica(schema.Replica{ID: "r1", Dataset: "b", Site: "s", PFN: "/b"}); err != nil {
		t.Fatal(err)
	}
	mustCheck(t, c, "AddReplica")
	if !c.Materialized("b") {
		t.Error("b should be materialized")
	}

	// Epoch bump without restamp strands the replica at the old epoch.
	if _, err := c.BumpEpoch("b", false); err != nil {
		t.Fatal(err)
	}
	mustCheck(t, c, "BumpEpoch(no restamp)")
	if c.Materialized("b") {
		t.Error("b should be stale after epoch bump")
	}

	// Restamping bump keeps it materialized.
	if _, err := c.BumpEpoch("b", true); err != nil {
		t.Fatal(err)
	}
	mustCheck(t, c, "BumpEpoch(restamp)")
	if !c.Materialized("b") {
		t.Error("b should be materialized after restamping bump")
	}

	if err := c.RemoveReplica("r1"); err != nil {
		t.Fatal(err)
	}
	mustCheck(t, c, "RemoveReplica")
	if c.Materialized("b") {
		t.Error("b should not be materialized after replica removal")
	}
}

// TestIndexesAfterReplayAndSnapshot proves the WAL replay and snapshot
// load paths maintain the same indexes the live mutations did.
func TestIndexesAfterReplayAndSnapshot(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.DefineType(dtype.Content, "blob", ""); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTransformation(idxTR("gen")); err != nil {
		t.Fatal(err)
	}
	if err := c.AddDataset(schema.Dataset{Name: "p", Type: dtype.Type{Content: "blob"},
		Attrs: schema.Attributes{"owner": "kim"}}); err != nil {
		t.Fatal(err)
	}
	dv := idxDV(t, c, "ix::gen", "p", "q")
	if err := c.AddInvocation(schema.Invocation{ID: "iv1", Derivation: dv.ID}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddReplica(schema.Replica{ID: "r1", Dataset: "q", Site: "s", PFN: "/q"}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddReplica(schema.Replica{ID: "r2", Dataset: "p", Site: "s", PFN: "/p"}); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveReplica("r2"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.BumpEpoch("q", true); err != nil {
		t.Fatal(err)
	}
	mustCheck(t, c, "live mutations")
	wantExport := c.Export()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: pure WAL replay.
	c2, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustCheck(t, c2, "WAL replay")
	if !equalJSON(wantExport, c2.Export()) {
		t.Error("replayed state differs from original")
	}
	if !c2.Materialized("q") || c2.Materialized("p") {
		t.Error("materialized flags wrong after replay")
	}

	// Compact, reopen: snapshot (load) path.
	if err := c2.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	c3, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	mustCheck(t, c3, "snapshot load")
	if !equalJSON(wantExport, c3.Export()) {
		t.Error("snapshot-loaded state differs from original")
	}
}

// TestViewConsistencyUnderStorm runs epoch-bump and derivation storms
// against concurrent Views (run with -race). Each View must observe one
// atomic state: the hot dataset's epoch bump and its replica restamp
// are a single mutation, so `materialized` can never read false; and
// every derivation atomically registers exactly one derived output, so
// within a view the derived-set size always equals the derivation
// count.
func TestViewConsistencyUnderStorm(t *testing.T) {
	c := New(nil)
	if err := c.AddDataset(schema.Dataset{Name: "hot"}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddReplica(schema.Replica{ID: "r-hot", Dataset: "hot", Site: "s", PFN: "/hot"}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTransformation(idxTR("gen")); err != nil {
		t.Fatal(err)
	}

	const (
		bumps   = 200
		derivs  = 200
		readers = 4
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < bumps; i++ {
			if _, err := c.BumpEpoch("hot", true); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < derivs; i++ {
			idxDV(t, c, "ix::gen", "hot", fmt.Sprintf("out%d", i))
		}
	}()

	var readWG sync.WaitGroup
	for r := 0; r < readers; r++ {
		readWG.Add(1)
		go func() {
			defer readWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := c.View()
				if !v.Materialized("hot") {
					t.Error("view observed torn epoch/replica state")
				}
				derived := v.DerivedDatasets().Len()
				n := 0
				v.RangeDerivations(func(schema.Derivation) bool { n++; return true })
				if derived != n {
					t.Errorf("view observed %d derived datasets but %d derivations", derived, n)
				}
				v.Close()
			}
		}()
	}

	wg.Wait()
	close(stop)
	readWG.Wait()
	mustCheck(t, c, "storm")
}
