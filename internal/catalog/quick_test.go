package catalog

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"chimera/internal/schema"
)

// Property (testing/quick): derivation duplicate detection is exactly
// signature equality — two derivations with the same TR, params and env
// always collapse; any difference always registers separately.
func TestDuplicateDetectionQuick(t *testing.T) {
	type params struct {
		In1, In2, P string
		SameInputs  bool
		SameParam   bool
	}
	f := func(a params) bool {
		c := New(nil)
		tr := schema.Transformation{Name: "t", Kind: schema.Simple, Exec: "/t",
			Args: []schema.FormalArg{
				{Name: "o", Direction: schema.Out},
				{Name: "i", Direction: schema.In},
				{Name: "p", Direction: schema.None},
			}}
		if err := c.AddTransformation(tr); err != nil {
			return false
		}
		clean := func(s, fallback string) string {
			for _, r := range s {
				if r == ' ' || r == '"' || r == '$' || r == '{' || r == '}' || r == '@' || r == '\t' || r == '\n' {
					return fallback
				}
			}
			if s == "" {
				return fallback
			}
			return s
		}
		in1 := clean(a.In1, "in1")
		in2 := clean(a.In2, "in2")
		if a.SameInputs {
			in2 = in1
		}
		p1 := a.P
		p2 := a.P
		if !a.SameParam {
			p2 = a.P + "x"
		}
		dv1 := schema.Derivation{TR: "t", Params: map[string]schema.Actual{
			"o": schema.DatasetActual("output", "out1"),
			"i": schema.DatasetActual("input", in1),
			"p": schema.StringActual(p1),
		}}
		dv2 := schema.Derivation{TR: "t", Params: map[string]schema.Actual{
			"o": schema.DatasetActual("output", "out1"),
			"i": schema.DatasetActual("input", in2),
			"p": schema.StringActual(p2),
		}}
		identical := in1 == in2 && p1 == p2
		if _, err := c.AddDerivation(dv1); err != nil {
			return false
		}
		_, err := c.AddDerivation(dv2)
		if identical {
			return err == ErrDuplicate
		}
		// Different computation producing the same output: conflict.
		return err != nil && err != ErrDuplicate
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: after any sequence of successful catalog operations, the
// provenance indexes are mutually consistent: every producer edge has a
// matching consumer edge view and vice versa.
func TestIndexConsistencyAfterRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		c := New(nil)
		tr := schema.Transformation{Name: "t", Kind: schema.Simple, Exec: "/t",
			Args: []schema.FormalArg{
				{Name: "o", Direction: schema.Out},
				{Name: "i", Direction: schema.In},
			}}
		if err := c.AddTransformation(tr); err != nil {
			t.Fatal(err)
		}
		nextDS := 0
		for op := 0; op < 100; op++ {
			in := fmt.Sprintf("p%d_%d", trial, rng.Intn(nextDS+1))
			out := fmt.Sprintf("p%d_%d", trial, nextDS+1)
			nextDS++
			c.AddDerivation(schema.Derivation{TR: "t", Params: map[string]schema.Actual{
				"o": schema.DatasetActual("output", out),
				"i": schema.DatasetActual("input", in),
			}})
			if rng.Intn(4) == 0 {
				c.AddReplica(schema.Replica{
					ID: fmt.Sprintf("r%d_%d", trial, op), Dataset: out,
					Site: "s", PFN: "/x"})
			}
		}
		// Consistency: for every derivation, each input lists it among
		// consumers' derivations and each output's producer is it.
		for _, dv := range c.Derivations() {
			ins, outs, err := c.DerivationIO(dv.ID)
			if err != nil {
				t.Fatal(err)
			}
			for _, in := range ins {
				v := c.View()
				found := false
				for _, consumer := range v.ConsumersOf(in) {
					if consumer == dv.ID {
						found = true
					}
				}
				v.Close()
				if !found {
					t.Fatalf("consumer index missing %s <- %s", dv.ID, in)
				}
			}
			for _, out := range outs {
				prod, err := c.Producer(out)
				if err != nil || prod.ID != dv.ID {
					t.Fatalf("producer index wrong for %s", out)
				}
			}
		}
		// Ancestors ∋ x ⇔ Descendants(x) ∋ it (spot check).
		dss := c.Datasets()
		for i := 0; i < 20; i++ {
			a := dss[rng.Intn(len(dss))].Name
			b := dss[rng.Intn(len(dss))].Name
			anc, err := c.Ancestors(a)
			if err != nil {
				t.Fatal(err)
			}
			inAnc := false
			for _, x := range anc.Datasets {
				if x == b {
					inAnc = true
				}
			}
			desc, err := c.Descendants(b)
			if err != nil {
				t.Fatal(err)
			}
			inDesc := false
			for _, x := range desc.Datasets {
				if x == a {
					inDesc = true
				}
			}
			if inAnc != inDesc {
				t.Fatalf("ancestor/descendant asymmetry between %s and %s", a, b)
			}
		}
	}
}

func BenchmarkAddDerivation(b *testing.B) {
	c := New(nil)
	c.AddTransformation(twoArg("t"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.AddDerivation(chainDV("t", fmt.Sprintf("i%d", i), fmt.Sprintf("o%d", i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLineageDeepChain(b *testing.B) {
	c := New(nil)
	c.AddTransformation(twoArg("t"))
	const depth = 500
	for i := 0; i < depth; i++ {
		if _, err := c.AddDerivation(chainDV("t", fmt.Sprintf("f%d", i), fmt.Sprintf("f%d", i+1))); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Lineage(fmt.Sprintf("f%d", depth)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFindDerivation(b *testing.B) {
	c := New(nil)
	c.AddTransformation(twoArg("t"))
	for i := 0; i < 10000; i++ {
		c.AddDerivation(chainDV("t", fmt.Sprintf("i%d", i), fmt.Sprintf("o%d", i)))
	}
	probe := chainDV("t", "i5000", "o5000")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.FindDerivation(probe); !ok {
			b.Fatal("miss")
		}
	}
}

func TestGetterSurfaces(t *testing.T) {
	c := New(nil)
	c.AddTransformation(twoArg("t"))
	dv, _ := c.AddDerivation(chainDV("t", "a", "b"))
	c.AddReplica(schema.Replica{ID: "r1", Dataset: "b", Site: "s", PFN: "/b"})
	c.AddInvocation(schema.Invocation{ID: "iv1", Derivation: dv.ID})

	exp := c.Export()
	if got := exp.Transformations; len(got) != 1 || got[0].Name != "t" {
		t.Errorf("Transformations: %v", got)
	}
	if got, err := c.Derivation(dv.ID); err != nil || got.ID != dv.ID {
		t.Errorf("Derivation: %v %v", got, err)
	}
	if _, err := c.Derivation("ghost"); err == nil {
		t.Error("ghost derivation accepted")
	}
	if got := c.Invocations(); len(got) != 1 || got[0].ID != "iv1" {
		t.Errorf("Invocations: %v", got)
	}
	if got := exp.Replicas; len(got) != 1 || got[0].ID != "r1" || got[0].Dataset != "b" {
		t.Errorf("Replicas: %v", got)
	}
}

func TestImportTolerantSkipsConflicts(t *testing.T) {
	// Source A and B disagree on transformation "t" and dataset "raw".
	a := New(nil)
	a.AddTransformation(twoArg("t"))
	a.AddDataset(schema.Dataset{Name: "raw", Size: 1})
	a.AddDerivation(chainDV("t", "raw", "outA"))

	b := New(nil)
	conflicting := twoArg("t")
	conflicting.Exec = "/different"
	b.AddTransformation(conflicting)
	b.AddTransformation(twoArg("u"))
	b.AddDataset(schema.Dataset{Name: "raw", Size: 2})
	b.AddDataset(schema.Dataset{Name: "only-b"})
	b.AddDerivation(chainDV("u", "only-b", "outB"))

	merged := New(nil)
	if n := merged.ImportTolerant(a.Export()); n != 0 {
		t.Errorf("clean import skipped %d", n)
	}
	skipped := merged.ImportTolerant(b.Export())
	if skipped == 0 {
		t.Error("conflicts not counted")
	}
	// A's versions win; B's non-conflicting objects still land.
	tr, err := merged.Transformation("t")
	if err != nil || tr.Exec != "/usr/bin/t" {
		t.Errorf("conflicting TR: %+v %v", tr, err)
	}
	if _, err := merged.Transformation("u"); err != nil {
		t.Errorf("B's unique TR lost: %v", err)
	}
	if _, err := merged.Dataset("only-b"); err != nil {
		t.Errorf("B's unique dataset lost: %v", err)
	}
	if _, err := merged.Producer("outB"); err != nil {
		t.Errorf("B's derivation lost: %v", err)
	}
	// Idempotent second pass: everything already there counts as
	// duplicate (derivations) or conflict (datasets with same bytes are
	// fine; the conflicting raw is skipped again).
	again := merged.ImportTolerant(b.Export())
	if again == 0 {
		t.Error("expected repeat conflicts")
	}
}
