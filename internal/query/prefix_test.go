package query

import (
	"testing"

	"chimera/internal/catalog"
	"chimera/internal/schema"
)

// prefixCatalog holds names that extend one another, carry glob
// metacharacters and end in 0xff bytes, and transformations sharing a
// namespace-and-name prefix.
func prefixCatalog(t testing.TB) *catalog.Catalog {
	t.Helper()
	c := catalog.New(nil)
	for _, name := range []string{"ds1", "ds10", "ds1x", "ds1*", "ds[1]", "dsa", "dsb", "dsc", "b1", "c2",
		"o1\xff", "o1\xff\xff", "o1\xffa", "o2", "\xff", "\xff\xff"} {
		ds := schema.Dataset{Name: name}
		if name == "ds1" || name == "dsa" || name == "o2" {
			ds.Attrs = schema.Attributes{"k": "v"}
		}
		if err := c.AddDataset(ds); err != nil {
			t.Fatal(err)
		}
	}
	for _, tr := range []struct{ ns, name, ver string }{{"t", "gen", ""}, {"t", "gen", "2"}, {"t", "genx", ""}, {"u", "gen", ""}} {
		if err := c.AddTransformation(schema.Transformation{Namespace: tr.ns, Name: tr.name, Version: tr.ver,
			Kind: schema.Simple, Exec: "/bin/gen"}); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestPrefixRangeCases pins the plan and the answer of every kind of
// name pattern: no metacharacter, an escaped one, a class after the
// prefix and before it, a leading `*` (no prefix: the key-test scan), a
// prefix ending in 0xff bytes, on both kinds whose name is the key, and
// with an indexed step on either side of the range's size.
func TestPrefixRangeCases(t *testing.T) {
	c := prefixCatalog(t)
	cases := []struct {
		kind       Kind
		q          string
		plan, want string
	}{
		{KDataset, `name ~ "ds1"`, `index datasets: [name ~ "ds1" range ->4] => 1 candidate`, "ds1"},
		{KDataset, `name ~ "ds1\\*"`, `index datasets: [name ~ "ds1\\*" range ->4] => 1 candidate`, "ds1*"},
		{KDataset, `name ~ "ds\\[1]"`, `index datasets: [name ~ "ds\\[1]" range ->8] => 1 candidate`, "ds[1]"},
		{KDataset, `name ~ "ds[a-c]*"`, `index datasets: [name ~ "ds[a-c]*" range ->8] => 3 candidates`, "dsa,dsb,dsc"},
		{KDataset, `name ~ "[a-c]*"`, `scan datasets: [name ~ "[a-c]*" key]`, "b1,c2"},
		{KDataset, `name ~ "*1"`, `scan datasets: [name ~ "*1" key]`, "b1,ds1"},
		{KDataset, "name ~ \"o1\xff*\"", "index datasets: [name ~ \"o1\xff*\" range ->3] => 3 candidates",
			"o1\xff,o1\xffa,o1\xff\xff"},
		{KDataset, "name ~ \"\xff*\"", "index datasets: [name ~ \"\xff*\" range ->2] => 2 candidates", "\xff,\xff\xff"},
		{KDataset, `name ~ "zz*"`, `index datasets: [name ~ "zz*" range ->0] => 0 candidates`, ""},
		// The smaller of the range and the smallest indexed set drives.
		{KDataset, `attr.k = v and name ~ "dsa*"`,
			`index datasets: [name ~ "dsa*" range ->1] ∩ [attr.k = "v" ->3] => 1 candidate`, "dsa"},
		{KDataset, `attr.k = v and name ~ "ds*"`,
			`index datasets: [attr.k = "v" ->3] ∩ [name ~ "ds*" key] => 2 candidates`, "ds1,dsa"},
		{KTransformation, `name ~ "t::gen*"`, `index transformations: [name ~ "t::gen*" range ->3] => 3 candidates`,
			"t::gen,t::gen:2,t::genx"},
		{KTransformation, `name ~ "t::gen:?"`, `index transformations: [name ~ "t::gen:?" range ->1] => 1 candidate`, "t::gen:2"},
		{KTransformation, `name ~ "*::gen"`, `scan transformations: [name ~ "*::gen" key]`, "t::gen,u::gen"},
	}
	for _, tc := range cases {
		e := mustParse(t, tc.q)
		plan, err := Explain(c, tc.kind, e)
		if err != nil {
			t.Fatal(err)
		}
		if plan != tc.plan {
			t.Errorf("Explain(%q):\n got %q\nwant %q", tc.q, plan, tc.plan)
		}
		res := search(t, c, tc.kind, tc.q) // also holds it to the naive evaluator
		if got := resKey(res); got != tc.want {
			t.Errorf("%q: got %q, want %q", tc.q, got, tc.want)
		}
	}
}

// TestPrefixRangeVisitsItsAnswer pins the discover_wide glob shapes on
// a 40k-dataset catalog: the plan ranges the hundred names sharing the
// prefix, with or without an indexed step ten thousand strong.
func TestPrefixRangeVisitsItsAnswer(t *testing.T) {
	c := cavesCatalog(t, 10000)
	for _, tc := range []struct{ q, plan string }{
		{`name ~ "caves.s1.42*"`, `index datasets: [name ~ "caves.s1.42*" range ->100] => 100 candidates`},
		{`attr.project = caves and not derived and name ~ "caves.raw.42*"`,
			`index datasets: [name ~ "caves.raw.42*" range ->100] ∩ [attr.project = "caves" ->10000] => 100 candidates; residual: not derived`},
	} {
		plan, err := Explain(c, KDataset, mustParse(t, tc.q))
		if err != nil {
			t.Fatal(err)
		}
		if plan != tc.plan {
			t.Errorf("Explain(%q):\n got %q\nwant %q", tc.q, plan, tc.plan)
		}
		if res := search(t, c, KDataset, tc.q); len(res.Datasets) != 100 {
			t.Errorf("%q: %d rows, want 100", tc.q, len(res.Datasets))
		}
	}
}
