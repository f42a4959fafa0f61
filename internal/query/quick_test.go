package query

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"chimera/internal/catalog"
	"chimera/internal/dtype"
	"chimera/internal/schema"
)

// Property: Parse never panics and, when it accepts an input, the
// parsed expression's String() form re-parses to an expression with
// identical evaluation behaviour on a fixed fixture.
func TestParseTotalQuick(t *testing.T) {
	c := fixture(t)
	f := func(src string) bool {
		e, err := Parse(src)
		if err != nil {
			return true
		}
		e2, err := Parse(e.String())
		if err != nil {
			t.Logf("unparseable round trip: %q -> %q", src, e.String())
			return false
		}
		r1, err1 := Run(c, KDataset, e)
		r2, err2 := Run(c, KDataset, e2)
		if (err1 == nil) != (err2 == nil) {
			return false
		}
		if err1 != nil {
			return true
		}
		return names(r1) == names(r2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: boolean algebra holds — for random pairs of valid
// predicates p, q: "p and q" ⊆ "p" ⊆ "p or q", and "not (not p)" = p.
func TestBooleanAlgebraProperty(t *testing.T) {
	c := fixture(t)
	preds := []string{
		`derived`, `materialized`, `virtual`,
		`name ~ "raw*"`, `name ~ "brg*"`, `type <= SDSS`,
		`attr.owner = annis`, `descendantof(raw1)`, `ancestorof(clusters)`,
	}
	members := func(q string) map[string]bool {
		res := search(t, c, KDataset, q)
		m := make(map[string]bool)
		for _, d := range res.Datasets {
			m[d.Name] = true
		}
		return m
	}
	for _, p := range preds {
		for _, q := range preds {
			both := members("(" + p + ") and (" + q + ")")
			either := members("(" + p + ") or (" + q + ")")
			pm := members(p)
			for name := range both {
				if !pm[name] {
					t.Fatalf("AND not subset: %q with %q yields %s not in %q", p, q, name, p)
				}
			}
			for name := range pm {
				if !either[name] {
					t.Fatalf("OR not superset: %s in %q missing from union with %q", name, p, q)
				}
			}
		}
		doubleNeg := members("not (not (" + p + "))")
		pm := members(p)
		if len(doubleNeg) != len(pm) {
			t.Fatalf("double negation changed %q: %d vs %d", p, len(doubleNeg), len(pm))
		}
	}
}

// randomCatalog builds a seeded pseudo-random catalog: a small type
// hierarchy, primary datasets with random types/attrs/replicas, a chain
// of derivations over random inputs citing the transformation by bare
// name or by version, random invocations, and random epoch bumps (with
// and without restamp).
func randomCatalog(t testing.TB, r *rand.Rand, shards int) *catalog.Catalog {
	t.Helper()
	c := catalog.NewSharded(nil, shards)
	for _, def := range [][2]string{{"root", ""}, {"mid", "root"}, {"leaf", "mid"}, {"other", ""}} {
		if err := c.DefineType(dtype.Content, def[0], def[1]); err != nil {
			t.Fatal(err)
		}
	}
	for _, ver := range []string{"", "2"} {
		if err := c.AddTransformation(schema.Transformation{
			Namespace: "t", Name: "gen", Version: ver, Kind: schema.Simple, Exec: "/bin/gen",
			Args: []schema.FormalArg{
				{Name: "o", Direction: schema.Out},
				{Name: "i", Direction: schema.In},
			}}); err != nil {
			t.Fatal(err)
		}
	}

	contents := []string{"root", "mid", "leaf", "other", ""}
	names := make([]string, 0, 16)
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("ds%d", i)
		ds := schema.Dataset{Name: name, Type: dtype.Type{Content: contents[r.Intn(len(contents))]}}
		if r.Intn(2) == 0 {
			ds.Attrs = schema.Attributes{"owner": []string{"ann", "bob"}[r.Intn(2)]}
			if r.Intn(2) == 0 {
				ds.Attrs["batch"] = []string{"x", "y"}[r.Intn(2)]
			}
		}
		if err := c.AddDataset(ds); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
	}
	// Names that extend others, carry glob metacharacters or end in 0xff
	// bytes, so that prefix ranges have edges to get wrong.
	for _, name := range []string{"ds1x", "ds1*", "ds[1]", "d", "o1\xff", "o1\xff\xff", "o1\xffa", "\xff"} {
		if r.Intn(2) == 0 {
			continue
		}
		if err := c.AddDataset(schema.Dataset{Name: name}); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
	}
	for i := 0; i < 10; i++ {
		out := fmt.Sprintf("o%d", i)
		dv, err := c.AddDerivation(schema.Derivation{TR: []string{"t::gen", "t::gen:2"}[r.Intn(2)], Params: map[string]schema.Actual{
			"o": schema.DatasetActual("output", out),
			"i": schema.DatasetActual("input", names[r.Intn(len(names))]),
		}})
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, out)
		if r.Intn(3) == 0 {
			if err := c.AddInvocation(schema.Invocation{ID: "iv-" + out, Derivation: dv.ID}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, name := range names {
		if r.Intn(3) == 0 {
			if err := c.AddReplica(schema.Replica{
				ID: fmt.Sprintf("r%d", i), Dataset: name, Site: "s", PFN: "/" + name,
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, name := range names {
		if r.Intn(4) == 0 {
			if _, err := c.BumpEpoch(name, r.Intn(2) == 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	return c
}

// randExprSrc generates a random query over objects that exist in
// randomCatalog's world, so evaluation never errors and differences
// between the planner and the scan are pure result differences.
func randExprSrc(r *rand.Rand, depth int) string {
	atoms := []string{
		`*`,
		fmt.Sprintf("name = ds%d", r.Intn(8)),
		fmt.Sprintf("name = o%d", r.Intn(10)),
		`name = nosuch`,
		`name ~ "ds*"`,
		fmt.Sprintf(`name ~ "?%d*"`, r.Intn(10)),
		`name ~ "t::*"`,
		// Literal prefixes: ranges over the ordered names.
		fmt.Sprintf(`name ~ "ds%d*"`, r.Intn(8)),
		fmt.Sprintf(`name ~ "o%d"`, r.Intn(10)),
		`name ~ "ds1\\*"`, `name ~ "ds\\[1]"`, `name ~ "ds[1]"`, `name ~ "d[s]1*"`, `name ~ "[a-d]*"`,
		`name ~ "*1"`, "name ~ \"o1\xff*\"", "name ~ \"\xff*\"", "name ~ \"o1\xff\xff\"",
		`name ~ "t::gen*"`, `name ~ "t::gen:2"`,
		`name != ds0`,
		`name != t::gen`,
		fmt.Sprintf("attr.owner = %s", []string{"ann", "bob"}[r.Intn(2)]),
		`attr.batch = x`,
		`attr.missing = z`,
		`type <= root`,
		`type <= mid`,
		`type <= other`,
		`type <= Dataset`,
		`derived`, `materialized`, `virtual`, `executed`, `simple`, `compound`,
		`tr = t::gen`, `tr = t::gen:2`, `tr = t`, `tr = nosuch::tr`,
		fmt.Sprintf("consumes(ds%d)", r.Intn(8)),
		fmt.Sprintf("produces(o%d)", r.Intn(10)),
		fmt.Sprintf("descendantof(ds%d)", r.Intn(8)),
		fmt.Sprintf("ancestorof(o%d)", r.Intn(10)),
	}
	if depth <= 0 || r.Intn(3) == 0 {
		return atoms[r.Intn(len(atoms))]
	}
	switch r.Intn(4) {
	case 0:
		return fmt.Sprintf("(%s and %s)", randExprSrc(r, depth-1), randExprSrc(r, depth-1))
	case 1:
		return fmt.Sprintf("(%s or %s)", randExprSrc(r, depth-1), randExprSrc(r, depth-1))
	case 2:
		return fmt.Sprintf("not (%s)", randExprSrc(r, depth-1))
	default: // deeper AND chains give the planner more conjuncts to pull
		return fmt.Sprintf("(%s and %s and %s)",
			randExprSrc(r, depth-1), randExprSrc(r, depth-1), randExprSrc(r, depth-1))
	}
}

// Property: for random catalogs and random expression trees, the
// planner and the naive evaluator return identical results (objects
// and order) for every object kind.
func TestIndexScanEquivalenceQuick(t *testing.T) { eachShardCount(t, testIndexScanEquivalenceQuick) }

func testIndexScanEquivalenceQuick(t *testing.T, shards int) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		c := randomCatalog(t, r, shards)
		if err := c.CheckIndexes(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i := 0; i < 50; i++ {
			src := randExprSrc(r, 3)
			e, err := Parse(src)
			if err != nil {
				t.Fatalf("seed %d: generated unparseable query %q: %v", seed, src, err)
			}
			for _, kind := range []Kind{KDataset, KTransformation, KDerivation} {
				idx, err1 := Run(c, kind, e)
				naive, err2 := runNaive(c, kind, e)
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("seed %d kind %d %q: planner err %v, naive err %v", seed, kind, src, err1, err2)
				}
				if err1 != nil {
					continue
				}
				if resKey(idx) != resKey(naive) {
					t.Fatalf("seed %d kind %d %q:\n planner %q\n naive   %q",
						seed, kind, src, resKey(idx), resKey(naive))
				}
			}
		}
	}
}

func BenchmarkSearchDatasets(b *testing.B) {
	c := fixture(b)
	e, err := Parse(`derived and descendantof(raw1) and type <= SDSS`)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(c, KDataset, e); err != nil {
			b.Fatal(err)
		}
	}
}
