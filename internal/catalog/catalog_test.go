package catalog

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"chimera/internal/dtype"
	"chimera/internal/schema"
)

// twoArg builds a simple out/in transformation like the paper's trans1.
func twoArg(name string) schema.Transformation {
	return schema.Transformation{
		Name: name, Kind: schema.Simple, Exec: "/usr/bin/" + name,
		Args: []schema.FormalArg{
			{Name: "a2", Direction: schema.Out},
			{Name: "a1", Direction: schema.In},
		},
	}
}

// chainDV derives out from in via tr.
func chainDV(tr, in, out string) schema.Derivation {
	return schema.Derivation{
		TR: tr,
		Params: map[string]schema.Actual{
			"a2": schema.DatasetActual("output", out),
			"a1": schema.DatasetActual("input", in),
		},
	}
}

// buildChain registers trans1..transN and a linear derivation chain
// file0 -> file1 -> ... -> fileN.
func buildChain(t *testing.T, c *Catalog, n int) []schema.Derivation {
	t.Helper()
	var dvs []schema.Derivation
	for i := 0; i < n; i++ {
		tr := twoArg(fmt.Sprintf("trans%d", i))
		if err := c.AddTransformation(tr); err != nil {
			t.Fatal(err)
		}
		dv, err := c.AddDerivation(chainDV(tr.Ref(), fmt.Sprintf("file%d", i), fmt.Sprintf("file%d", i+1)))
		if err != nil {
			t.Fatal(err)
		}
		dvs = append(dvs, dv)
	}
	return dvs
}

func TestAddAndGetBasics(t *testing.T) {
	c := New(dtype.StandardRegistry())
	ds := schema.Dataset{Name: "raw", Type: dtype.Type{Content: "CMS"}, Descriptor: schema.FileDescriptor{Path: "/raw"}}
	if err := c.AddDataset(ds); err != nil {
		t.Fatal(err)
	}
	// Idempotent re-add.
	if err := c.AddDataset(ds); err != nil {
		t.Fatal(err)
	}
	// Different redefinition rejected.
	ds2 := ds
	ds2.Size = 99
	if err := c.AddDataset(ds2); !errors.Is(err, ErrExists) {
		t.Errorf("redefinition: %v", err)
	}
	// Unknown type rejected.
	if err := c.AddDataset(schema.Dataset{Name: "x", Type: dtype.Type{Content: "Ghost"}}); !errors.Is(err, ErrType) {
		t.Errorf("unknown type: %v", err)
	}
	got, err := c.Dataset("raw")
	if err != nil || got.Name != "raw" {
		t.Fatalf("get: %v %v", got, err)
	}
	if _, err := c.Dataset("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing dataset: %v", err)
	}
	if n := len(c.Datasets()); n != 1 {
		t.Errorf("Datasets: %d", n)
	}
}

func TestUpdateDataset(t *testing.T) {
	c := New(nil)
	if err := c.AddDataset(schema.Dataset{Name: "d"}); err != nil {
		t.Fatal(err)
	}
	up := schema.Dataset{Name: "d", Descriptor: schema.FileDescriptor{Path: "/d"}, Epoch: 1}
	if err := c.UpdateDataset(up); err != nil {
		t.Fatal(err)
	}
	got, _ := c.Dataset("d")
	if got.IsVirtual() || got.Epoch != 1 {
		t.Errorf("update lost: %+v", got)
	}
	// Epoch regression rejected.
	if err := c.UpdateDataset(schema.Dataset{Name: "d"}); !errors.Is(err, ErrConflict) {
		t.Errorf("epoch regression: %v", err)
	}
	if err := c.UpdateDataset(schema.Dataset{Name: "ghost"}); !errors.Is(err, ErrNotFound) {
		t.Errorf("update missing: %v", err)
	}
}

func TestTransformationVersions(t *testing.T) {
	c := New(nil)
	v1 := twoArg("sim")
	v1.Version = "1.0"
	v2 := twoArg("sim")
	v2.Version = "2.0"
	if err := c.AddTransformation(v1); err != nil {
		t.Fatal(err)
	}
	// Exact ref resolves.
	if _, err := c.Transformation("sim:1.0"); err != nil {
		t.Fatal(err)
	}
	// Single version: versionless ref falls through.
	if tr, err := c.Transformation("sim"); err != nil || tr.Version != "1.0" {
		t.Errorf("versionless single: %v %v", tr.Version, err)
	}
	if err := c.AddTransformation(v2); err != nil {
		t.Fatal(err)
	}
	// Two versions: versionless is ambiguous.
	if _, err := c.Transformation("sim"); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("ambiguity: %v", err)
	}
	if got := c.Versions("", "sim"); len(got) != 2 {
		t.Errorf("versions: %v", got)
	}
	// Conflicting redefinition rejected, identical tolerated.
	if err := c.AddTransformation(v1); err != nil {
		t.Errorf("idempotent: %v", err)
	}
	v1b := v1
	v1b.Exec = "/other"
	if err := c.AddTransformation(v1b); !errors.Is(err, ErrExists) {
		t.Errorf("conflict: %v", err)
	}
}

func TestDerivationDuplicateDetection(t *testing.T) {
	c := New(nil)
	if err := c.AddTransformation(twoArg("t")); err != nil {
		t.Fatal(err)
	}
	dv1, err := c.AddDerivation(chainDV("t", "in", "out"))
	if err != nil {
		t.Fatal(err)
	}
	// Same computation again: duplicate, returns the stored one.
	dv2, err := c.AddDerivation(chainDV("t", "in", "out"))
	if !errors.Is(err, ErrDuplicate) {
		t.Fatalf("want ErrDuplicate, got %v", err)
	}
	if dv2.ID != dv1.ID {
		t.Error("duplicate did not return original")
	}
	if found, ok := c.FindDerivation(chainDV("t", "in", "out")); !ok || found.ID != dv1.ID {
		t.Error("FindDerivation missed")
	}
	if _, ok := c.FindDerivation(chainDV("t", "in", "other")); ok {
		t.Error("FindDerivation false positive")
	}
}

func TestDerivationAutoRegistersDatasets(t *testing.T) {
	c := New(nil)
	if err := c.AddTransformation(twoArg("t")); err != nil {
		t.Fatal(err)
	}
	dv, err := c.AddDerivation(chainDV("t", "in", "out"))
	if err != nil {
		t.Fatal(err)
	}
	in, err := c.Dataset("in")
	if err != nil || in.CreatedBy != "" {
		t.Errorf("input auto-registration: %+v %v", in, err)
	}
	out, err := c.Dataset("out")
	if err != nil || out.CreatedBy != dv.ID || !out.IsVirtual() {
		t.Errorf("output auto-registration: %+v %v", out, err)
	}
}

func TestProducerConflict(t *testing.T) {
	c := New(nil)
	c.AddTransformation(twoArg("t"))
	if _, err := c.AddDerivation(chainDV("t", "a", "x")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddDerivation(chainDV("t", "b", "x")); !errors.Is(err, ErrConflict) {
		t.Errorf("double producer: %v", err)
	}
	// Input==output rejected.
	if _, err := c.AddDerivation(chainDV("t", "y", "y")); !errors.Is(err, ErrConflict) {
		t.Errorf("self loop: %v", err)
	}
	// Unknown TR.
	if _, err := c.AddDerivation(chainDV("ghost", "p", "q")); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown TR: %v", err)
	}
}

func TestDerivationTypeChecking(t *testing.T) {
	c := New(dtype.StandardRegistry())
	tr := schema.Transformation{
		Name: "analyze", Kind: schema.Simple, Exec: "/bin/a",
		Args: []schema.FormalArg{
			{Name: "out", Direction: schema.Out},
			{Name: "in", Direction: schema.In, Types: []dtype.Type{{Content: "CMS"}}},
		},
	}
	if err := c.AddTransformation(tr); err != nil {
		t.Fatal(err)
	}
	c.AddDataset(schema.Dataset{Name: "good", Type: dtype.Type{Content: "Zebra-file"}})
	c.AddDataset(schema.Dataset{Name: "bad", Type: dtype.Type{Content: "FITS-file"}})
	c.AddDataset(schema.Dataset{Name: "untyped"})

	mk := func(in string) schema.Derivation {
		return schema.Derivation{TR: "analyze", Params: map[string]schema.Actual{
			"out": schema.DatasetActual("output", "o-"+in),
			"in":  schema.DatasetActual("input", in),
		}}
	}
	if _, err := c.AddDerivation(mk("good")); err != nil {
		t.Errorf("conforming subtype rejected: %v", err)
	}
	if _, err := c.AddDerivation(mk("bad")); !errors.Is(err, ErrType) {
		t.Errorf("non-conforming accepted: %v", err)
	}
	if _, err := c.AddDerivation(mk("untyped")); err != nil {
		t.Errorf("untyped dataset rejected: %v", err)
	}
	// TR with unknown type in signature rejected.
	bad := tr
	bad.Name = "b2"
	bad.Args[1].Types = []dtype.Type{{Content: "NoSuch"}}
	if err := c.AddTransformation(bad); !errors.Is(err, ErrType) {
		t.Errorf("unknown formal type: %v", err)
	}
}

func TestPaperProvenanceChain(t *testing.T) {
	c := New(nil)
	dvs := buildChain(t, c, 2) // file0 -> file1 -> file2

	prod, err := c.Producer("file2")
	if err != nil || prod.ID != dvs[1].ID {
		t.Fatalf("producer: %v %v", prod, err)
	}
	if _, err := c.Producer("file0"); !errors.Is(err, ErrNotFound) {
		t.Errorf("primary data has producer: %v", err)
	}
	v := c.View()
	cons := v.ConsumersOf("file1")
	v.Close()
	if len(cons) != 1 || cons[0] != dvs[1].ID {
		t.Errorf("consumers: %v", cons)
	}

	anc, err := c.Ancestors("file2")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(anc.Datasets, ",") != "file0,file1" {
		t.Errorf("ancestor datasets: %v", anc.Datasets)
	}
	if len(anc.Derivations) != 2 {
		t.Errorf("ancestor derivations: %v", anc.Derivations)
	}

	desc, err := c.Descendants("file0")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(desc.Datasets, ",") != "file1,file2" {
		t.Errorf("descendant datasets: %v", desc.Datasets)
	}

	// The calibration-error question.
	inv, err := c.Invalidate("file1")
	if err != nil || strings.Join(inv.Datasets, ",") != "file2" {
		t.Errorf("invalidate: %v %v", inv, err)
	}
}

func TestLineageReport(t *testing.T) {
	c := New(nil)
	buildChain(t, c, 3)
	// Add an invocation on the middle step.
	mid, _ := c.Producer("file2")
	iv := schema.Invocation{
		ID: "iv-1", Derivation: mid.ID, Site: "uchicago",
		Start: time.Unix(1000, 0), End: time.Unix(1020, 0),
	}
	if err := c.AddInvocation(iv); err != nil {
		t.Fatal(err)
	}

	rep, err := c.Lineage("file3")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Primary {
		t.Error("derived dataset reported primary")
	}
	if len(rep.Steps) != 3 {
		t.Fatalf("steps: %d", len(rep.Steps))
	}
	if rep.Steps[0].Depth != 1 || rep.Steps[2].Depth != 3 {
		t.Errorf("depths: %d %d", rep.Steps[0].Depth, rep.Steps[2].Depth)
	}
	if rep.Steps[1].Invocations[0].Site != "uchicago" {
		t.Errorf("invocation in lineage: %+v", rep.Steps[1])
	}
	if strings.Join(rep.PrimarySources, ",") != "file0" {
		t.Errorf("primary sources: %v", rep.PrimarySources)
	}

	prim, err := c.Lineage("file0")
	if err != nil || !prim.Primary {
		t.Errorf("primary lineage: %+v %v", prim, err)
	}
	if _, err := c.Lineage("ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing lineage: %v", err)
	}
}

// Property: Ancestors equals brute-force transitive closure on random DAGs.
func TestAncestorsMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := New(nil)
	merge := schema.Transformation{
		Name: "merge", Kind: schema.Simple, Exec: "/bin/m",
		Args: []schema.FormalArg{
			{Name: "out", Direction: schema.Out},
			{Name: "ins", Direction: schema.In},
		},
	}
	if err := c.AddTransformation(merge); err != nil {
		t.Fatal(err)
	}
	const layers, width = 6, 8
	names := func(l, i int) string { return fmt.Sprintf("d%d_%d", l, i) }
	parents := make(map[string][]string)
	// Pre-register layer-0 primary datasets (some may never be sampled
	// as inputs and would otherwise not exist).
	for i := 0; i < width; i++ {
		if err := c.AddDataset(schema.Dataset{Name: names(0, i)}); err != nil {
			t.Fatal(err)
		}
	}
	for l := 1; l < layers; l++ {
		for i := 0; i < width; i++ {
			n := 1 + rng.Intn(3)
			var ins []schema.Actual
			var ps []string
			for k := 0; k < n; k++ {
				p := names(l-1, rng.Intn(width))
				ins = append(ins, schema.DatasetActual("input", p))
				ps = append(ps, p)
			}
			dv := schema.Derivation{TR: "merge", Params: map[string]schema.Actual{
				"out": schema.DatasetActual("output", names(l, i)),
				"ins": schema.ListActual(ins...),
			}}
			if _, err := c.AddDerivation(dv); err != nil {
				t.Fatal(err)
			}
			parents[names(l, i)] = ps
		}
	}
	// Brute-force closure.
	var closure func(ds string, acc map[string]bool)
	closure = func(ds string, acc map[string]bool) {
		for _, p := range parents[ds] {
			if !acc[p] {
				acc[p] = true
				closure(p, acc)
			}
		}
	}
	for l := 0; l < layers; l++ {
		for i := 0; i < width; i++ {
			ds := names(l, i)
			want := make(map[string]bool)
			closure(ds, want)
			got, err := c.Ancestors(ds)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Datasets) != len(want) {
				t.Fatalf("%s: got %d ancestors, want %d", ds, len(got.Datasets), len(want))
			}
			for _, a := range got.Datasets {
				if !want[a] {
					t.Fatalf("%s: spurious ancestor %s", ds, a)
				}
			}
		}
	}
}

func TestMaterializationPlan(t *testing.T) {
	c := New(nil)
	dvs := buildChain(t, c, 3) // file0 -> ... -> file3

	// Nothing materialized but file0 (primary, with a replica).
	c.AddReplica(schema.Replica{ID: "r0", Dataset: "file0", Site: "s", PFN: "/f0"})
	plan, err := c.MaterializationPlan("file3", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 3 || plan[0].ID != dvs[0].ID || plan[2].ID != dvs[2].ID {
		t.Errorf("full plan: %v", ids(plan))
	}

	// file2 materialized: plan prunes to the last step.
	c.AddReplica(schema.Replica{ID: "r2", Dataset: "file2", Site: "s", PFN: "/f2"})
	plan, err = c.MaterializationPlan("file3", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 1 || plan[0].ID != dvs[2].ID {
		t.Errorf("pruned plan: %v", ids(plan))
	}

	// Target already materialized: empty plan.
	c.AddReplica(schema.Replica{ID: "r3", Dataset: "file3", Site: "s", PFN: "/f3"})
	plan, err = c.MaterializationPlan("file3", nil)
	if err != nil || len(plan) != 0 {
		t.Errorf("materialized target: %v %v", ids(plan), err)
	}

	// Underivable, unmaterialized input is an error.
	c2 := New(nil)
	buildChain(t, c2, 1)
	if _, err := c2.MaterializationPlan("file1", func(*View, string) bool { return false }); !errors.Is(err, ErrNotFound) {
		t.Errorf("underivable: %v", err)
	}
}

func ids(dvs []schema.Derivation) []string {
	out := make([]string, len(dvs))
	for i, d := range dvs {
		out[i] = d.ID
	}
	return out
}

// Property: MaterializationPlan output is a valid topological order and
// minimal (contains exactly the unmaterialized ancestors' producers).
func TestMaterializationPlanTopoProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		c := New(nil)
		c.AddTransformation(twoArg("t"))
		merge := schema.Transformation{Name: "m", Kind: schema.Simple, Exec: "/bin/m",
			Args: []schema.FormalArg{{Name: "a2", Direction: schema.Out}, {Name: "a1", Direction: schema.In}, {Name: "a0", Direction: schema.In}}}
		c.AddTransformation(merge)
		n := 15
		for i := 1; i < n; i++ {
			out := fmt.Sprintf("n%d", i)
			p1 := fmt.Sprintf("n%d", rng.Intn(i))
			if rng.Intn(2) == 0 && i >= 2 {
				p2 := fmt.Sprintf("n%d", rng.Intn(i))
				c.AddDerivation(schema.Derivation{TR: "m", Params: map[string]schema.Actual{
					"a2": schema.DatasetActual("output", out),
					"a1": schema.DatasetActual("input", p1),
					"a0": schema.DatasetActual("input", p2),
				}})
			} else {
				c.AddDerivation(chainDV("t", p1, out))
			}
		}
		mat := map[string]bool{"n0": true}
		for i := 1; i < n; i++ {
			if rng.Intn(3) == 0 {
				mat[fmt.Sprintf("n%d", i)] = true
			}
		}
		target := fmt.Sprintf("n%d", n-1)
		plan, err := c.MaterializationPlan(target, func(_ *View, ds string) bool { return mat[ds] })
		if err != nil {
			t.Fatal(err)
		}
		produced := make(map[string]bool)
		for ds := range mat {
			produced[ds] = true
		}
		for _, dv := range plan {
			ins, outs, err := c.DerivationIO(dv.ID)
			if err != nil {
				t.Fatal(err)
			}
			for _, in := range ins {
				if !produced[in] {
					t.Fatalf("trial %d: derivation %s scheduled before input %s available", trial, dv.ID, in)
				}
			}
			for _, out := range outs {
				produced[out] = true
			}
		}
		if !produced[target] && !mat[target] {
			t.Fatalf("trial %d: plan does not produce target", trial)
		}
	}
}

func TestCompatibility(t *testing.T) {
	c := New(nil)
	if !c.Compatible("", "sim", "1.0", "1.0") {
		t.Error("identity compatibility")
	}
	if c.Compatible("", "sim", "1.0", "1.1") {
		t.Error("unasserted compatibility")
	}
	c.AssertCompatibility(schema.CompatibilityAssertion{Name: "sim", V1: "1.0", V2: "1.1", Mode: schema.Equivalent})
	c.AssertCompatibility(schema.CompatibilityAssertion{Name: "sim", V1: "1.1", V2: "1.2", Mode: schema.Equivalent})
	if !c.Compatible("", "sim", "1.0", "1.1") || !c.Compatible("", "sim", "1.1", "1.0") {
		t.Error("asserted equivalence not symmetric")
	}
	if !c.Compatible("", "sim", "1.0", "1.2") {
		t.Error("equivalence not transitive")
	}
	// Veto.
	c.AssertCompatibility(schema.CompatibilityAssertion{Name: "sim", V1: "1.0", V2: "1.2", Mode: schema.Incompatible})
	if c.Compatible("", "sim", "1.0", "1.2") {
		t.Error("veto ignored")
	}
	// Scoped to the transformation name.
	if c.Compatible("", "other", "1.0", "1.1") {
		t.Error("assertion leaked across names")
	}
	if err := c.AssertCompatibility(schema.CompatibilityAssertion{Name: "x", V1: "1", V2: "2", Mode: "bogus"}); err == nil {
		t.Error("invalid assertion accepted")
	}
}

func TestReplicasAndInvocations(t *testing.T) {
	c := New(nil)
	c.AddTransformation(twoArg("t"))
	dv, _ := c.AddDerivation(chainDV("t", "in", "out"))

	if err := c.AddReplica(schema.Replica{ID: "r1", Dataset: "ghost", Site: "s", PFN: "/x"}); !errors.Is(err, ErrNotFound) {
		t.Errorf("replica of unknown dataset: %v", err)
	}
	if err := c.AddReplica(schema.Replica{ID: "r1", Dataset: "out", Site: "s1", PFN: "/x"}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddReplica(schema.Replica{ID: "r1", Dataset: "out", Site: "s2", PFN: "/y"}); !errors.Is(err, ErrExists) {
		t.Errorf("dup replica: %v", err)
	}
	if !c.Materialized("out") {
		t.Error("replica should materialize dataset")
	}
	if c.Materialized("in") || c.Materialized("ghost") {
		t.Error("false materialization")
	}
	// Epoch mismatch: replica of old epoch does not materialize.
	ds, _ := c.Dataset("out")
	ds.Epoch = 1
	c.UpdateDataset(ds)
	if c.Materialized("out") {
		t.Error("stale replica materializes new epoch")
	}

	if err := c.RemoveReplica("r1"); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveReplica("r1"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double remove: %v", err)
	}
	if len(c.ReplicasOf("out")) != 0 {
		t.Error("replica index stale after remove")
	}

	iv := schema.Invocation{ID: "iv1", Derivation: dv.ID, Start: time.Unix(0, 0), End: time.Unix(1, 0)}
	if err := c.AddInvocation(iv); err != nil {
		t.Fatal(err)
	}
	if err := c.AddInvocation(iv); !errors.Is(err, ErrExists) {
		t.Errorf("dup invocation: %v", err)
	}
	if err := c.AddInvocation(schema.Invocation{ID: "iv2", Derivation: "ghost", Start: time.Unix(0, 0), End: time.Unix(1, 0)}); !errors.Is(err, ErrNotFound) {
		t.Errorf("invocation of unknown derivation: %v", err)
	}
	if got := c.Export().Invocations; len(got) != 1 || got[0].ID != "iv1" || got[0].Derivation != dv.ID {
		t.Errorf("invocations: %v", got)
	}
	if _, err := c.Invocation("iv1"); err != nil {
		t.Error(err)
	}
	if _, err := c.Invocation("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing invocation: %v", err)
	}

	st := c.Stats()
	if st.Derivations != 1 || st.Invocations != 1 || st.Datasets != 2 {
		t.Errorf("stats: %+v", st)
	}
}

func TestResolverAndExpansionIntegration(t *testing.T) {
	c := New(nil)
	c.AddTransformation(twoArg("step"))
	comp := schema.Transformation{
		Name: "pipeline", Kind: schema.Compound,
		Args: []schema.FormalArg{
			{Name: "in", Direction: schema.In},
			{Name: "mid", Direction: schema.InOut, Default: ptrActual(schema.DatasetActual("inout", "tmp"))},
			{Name: "out", Direction: schema.Out},
		},
		Calls: []schema.Call{
			{TR: "step", Bindings: map[string]schema.Actual{"a2": refDir("output", "mid"), "a1": schema.FormalRefActual("in")}},
			{TR: "step", Bindings: map[string]schema.Actual{"a2": refDir("output", "out"), "a1": refDir("input", "mid")}},
		},
	}
	if err := c.AddTransformation(comp); err != nil {
		t.Fatal(err)
	}
	dv := schema.Derivation{TR: "pipeline", Params: map[string]schema.Actual{
		"in":  schema.DatasetActual("input", "source"),
		"out": schema.DatasetActual("output", "sink"),
	}}
	leaves, err := schema.ExpandDerivation(dv, c.Resolver())
	if err != nil {
		t.Fatal(err)
	}
	if len(leaves) != 2 {
		t.Fatalf("leaves: %d", len(leaves))
	}
	for _, l := range leaves {
		if _, err := c.AddDerivation(l); err != nil {
			t.Fatal(err)
		}
	}
	anc, err := c.Ancestors("sink")
	if err != nil {
		t.Fatal(err)
	}
	if len(anc.Datasets) != 2 { // source + tmp.<suffix>
		t.Errorf("expanded provenance: %v", anc.Datasets)
	}
}

func refDir(dir, name string) schema.Actual {
	a := schema.FormalRefActual(name)
	a.Direction = dir
	return a
}

func ptrActual(a schema.Actual) *schema.Actual { return &a }

// TestReplicaIDUniqueAcrossDatasets: a replica ID names one replica in
// the whole catalog, whatever dataset it cites. (Under the former
// sharded layout, ds.old and ds.new homed on different shards and each
// shard checked only its own replicas.)
func TestReplicaIDUniqueAcrossDatasets(t *testing.T) {
	c := NewSharded(nil, 4)
	for _, name := range []string{"ds.old", "ds.new"} {
		if err := c.AddDataset(schema.Dataset{Name: name}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.AddReplica(schema.Replica{ID: "r1", Dataset: "ds.old", Site: "a", PFN: "/a/r1"}); err != nil {
		t.Fatal(err)
	}
	err := c.AddReplica(schema.Replica{ID: "r1", Dataset: "ds.new", Site: "b", PFN: "/b/r1"})
	if !errors.Is(err, ErrExists) {
		t.Fatalf("second AddReplica(r1) = %v, want ErrExists", err)
	}
	n := 0
	for _, r := range c.Export().Replicas {
		if r.ID == "r1" {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("export holds %d replicas r1, want 1", n)
	}
}
