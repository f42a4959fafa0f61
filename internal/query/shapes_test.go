package query

import (
	"fmt"
	"testing"

	"chimera/internal/catalog"
	"chimera/internal/schema"
)

// cavesCatalog builds the shape of base the end-to-end benchmark's
// discover_wide workload queries (benchmark/gen.go): per chain one
// tagged raw dataset and three derived stages, names
// caves.raw.NNNN / caves.sJ.NNNN.
func cavesCatalog(tb testing.TB, chains int) *catalog.Catalog {
	tb.Helper()
	c := catalog.New(nil)
	for j := 0; j < 3; j++ {
		if err := c.AddTransformation(schema.Transformation{
			Namespace: "caves", Name: fmt.Sprintf("stage%d", j), Kind: schema.Simple, Exec: "/cms/caves/stage",
			Args: []schema.FormalArg{{Name: "out", Direction: schema.Out}, {Name: "in", Direction: schema.In}},
		}); err != nil {
			tb.Fatal(err)
		}
	}
	for ch := 0; ch < chains; ch++ {
		in := fmt.Sprintf("caves.raw.%04d", ch)
		if err := c.AddDataset(schema.Dataset{Name: in, Size: 1e9,
			Attrs: schema.Attributes{"tag": fmt.Sprintf("tag%02d", ch%16), "project": "caves"}}); err != nil {
			tb.Fatal(err)
		}
		for j := 0; j < 3; j++ {
			out := fmt.Sprintf("caves.s%d.%04d", j, ch)
			if _, err := c.AddDerivation(schema.Derivation{TR: fmt.Sprintf("caves::stage%d", j),
				Params: map[string]schema.Actual{
					"out": schema.DatasetActual("output", out),
					"in":  schema.DatasetActual("input", in),
				}}); err != nil {
				tb.Fatal(err)
			}
			in = out
		}
	}
	return c
}

// evalUncached plans and executes e on a fresh View, as a cache
// miss in Run does.
func evalUncached(tb testing.TB, c *catalog.Catalog, kind Kind, e Expr) Results {
	v := c.View()
	defer v.Close()
	res, _, err := evalView(v, kind, e)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// TestPointQueryAllocsIndependentOfCatalogSize guards the answer-bound
// property: `name = X and derived` probes the derived flag set, so a ten
// times larger catalog must not cost one allocation more. (Merging the parts
// into one set, as the planner once did, allocates with the catalog.)
func TestPointQueryAllocsIndependentOfCatalogSize(t *testing.T) {
	e := mustParse(t, `name = caves.s2.0007 and derived`)
	var allocs []float64
	for _, chains := range []int{250, 2500} { // 1k and 10k datasets
		c := cavesCatalog(t, chains)
		if res := evalUncached(t, c, KDataset, e); len(res.Datasets) != 1 {
			t.Fatalf("%d chains: got %d rows, want 1", chains, len(res.Datasets))
		}
		allocs = append(allocs, testing.AllocsPerRun(100, func() { evalUncached(t, c, KDataset, e) }))
	}
	if allocs[0] != allocs[1] {
		t.Errorf("allocations grew with the catalog: %v at 1k datasets, %v at 10k", allocs[0], allocs[1])
	}
}

// BenchmarkDiscoverShapes times one uncached execution of each predicate
// shape of the discover_wide workload on a 70k-object base.
func BenchmarkDiscoverShapes(b *testing.B) {
	const chains = 10000
	c := cavesCatalog(b, chains)
	shapes := []struct {
		name string
		kind Kind
		q    string
		rows int
	}{
		{"tag", KDataset, `attr.tag = tag07`, chains / 16},
		{"name_derived", KDataset, `name = caves.s2.4242 and derived`, 1},
		{"consumes", KDerivation, `consumes(caves.raw.4242)`, 1},
		{"produces", KDerivation, `produces(caves.s0.4242)`, 1},
		{"name_glob", KDataset, `name ~ "caves.s1.42*"`, 100},
		{"attr_not_derived_glob", KDataset, `attr.project = caves and not derived and name ~ "caves.raw.42*"`, 100},
		{"descendantof", KDataset, `descendantof(caves.raw.4242)`, 3},
	}
	for _, sh := range shapes {
		e := mustParse(b, sh.q)
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := evalUncached(b, c, sh.kind, e)
				if n := len(res.Datasets) + len(res.Derivations); n != sh.rows {
					b.Fatalf("%s: got %d rows, want %d", sh.q, n, sh.rows)
				}
			}
		})
	}
}
