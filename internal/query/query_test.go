package query

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"chimera/internal/catalog"
	"chimera/internal/dtype"
	"chimera/internal/schema"
)

// fixture builds a catalog with a small SDSS-flavoured world:
//
//	raw1, raw2 (primary, FITS-file, materialized)
//	brg1 = brgSearch(raw1); brg2 = brgSearch(raw2)
//	clusters = bcgSearch(brg1, brg2)   [executed]
func fixture(t testing.TB) *catalog.Catalog { return fixtureShards(t, 1) }

// shardCounts name the subtests every query fixture runs under. The
// catalog has one lock and NewSharded ignores the count; the subtests
// keep their names until NewSharded is deleted.
var shardCounts = []int{1, 4}

// eachShardCount runs fn as one subtest per shard count.
func eachShardCount(t *testing.T, fn func(t *testing.T, shards int)) {
	for _, n := range shardCounts {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) { fn(t, n) })
	}
}

func fixtureShards(t testing.TB, shards int) *catalog.Catalog {
	t.Helper()
	c := catalog.NewSharded(dtype.StandardRegistry(), shards)

	brgSearch := schema.Transformation{
		Namespace: "sdss", Name: "brgSearch", Kind: schema.Simple, Exec: "/bin/brg",
		Args: []schema.FormalArg{
			{Name: "out", Direction: schema.Out, Types: []dtype.Type{{Content: "Object-map"}}},
			{Name: "in", Direction: schema.In, Types: []dtype.Type{{Content: "FITS-file"}}},
		},
		Attrs: schema.Attributes{"author": "annis"},
	}
	bcgSearch := schema.Transformation{
		Namespace: "sdss", Name: "bcgSearch", Kind: schema.Simple, Exec: "/bin/bcg",
		Args: []schema.FormalArg{
			{Name: "out", Direction: schema.Out},
			{Name: "in1", Direction: schema.In, Types: []dtype.Type{{Content: "Object-map"}}},
			{Name: "in2", Direction: schema.In, Types: []dtype.Type{{Content: "Object-map"}}},
		},
	}
	pipeline := schema.Transformation{
		Namespace: "sdss", Name: "pipeline", Kind: schema.Compound,
		Args: []schema.FormalArg{
			{Name: "in", Direction: schema.In},
			{Name: "out", Direction: schema.Out},
		},
		Calls: []schema.Call{{TR: "sdss::brgSearch", Bindings: map[string]schema.Actual{
			"out": schema.FormalRefActual("out"), "in": schema.FormalRefActual("in"),
		}}},
	}
	for _, tr := range []schema.Transformation{brgSearch, bcgSearch, pipeline} {
		if err := c.AddTransformation(tr); err != nil {
			t.Fatal(err)
		}
	}
	for i, name := range []string{"raw1", "raw2"} {
		if err := c.AddDataset(schema.Dataset{
			Name: name, Type: dtype.Type{Content: "FITS-file", Format: "Simple"},
			Descriptor: schema.FileDescriptor{Path: "/sdss/" + name},
			Attrs:      schema.Attributes{"owner": "annis", "stripe": []string{"10", "82"}[i]},
		}); err != nil {
			t.Fatal(err)
		}
		if err := c.AddReplica(schema.Replica{ID: "r-" + name, Dataset: name, Site: "fnal", PFN: "/store/" + name}); err != nil {
			t.Fatal(err)
		}
	}
	for _, pair := range [][2]string{{"raw1", "brg1"}, {"raw2", "brg2"}} {
		c.AddDataset(schema.Dataset{Name: pair[1], Type: dtype.Type{Content: "Object-map"}})
		if _, err := c.AddDerivation(schema.Derivation{TR: "sdss::brgSearch", Params: map[string]schema.Actual{
			"out": schema.DatasetActual("output", pair[1]),
			"in":  schema.DatasetActual("input", pair[0]),
		}}); err != nil {
			t.Fatal(err)
		}
	}
	final, err := c.AddDerivation(schema.Derivation{TR: "sdss::bcgSearch", Params: map[string]schema.Actual{
		"out": schema.DatasetActual("output", "clusters"),
		"in1": schema.DatasetActual("input", "brg1"),
		"in2": schema.DatasetActual("input", "brg2"),
	}, Attrs: schema.Attributes{"campaign": "dr1"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddInvocation(schema.Invocation{
		ID: "iv-final", Derivation: final.ID,
		Start: time.Unix(0, 0), End: time.Unix(60, 0), Site: "anl",
	}); err != nil {
		t.Fatal(err)
	}
	return c
}

func names(res Results) string {
	var out []string
	for _, d := range res.Datasets {
		out = append(out, d.Name)
	}
	for _, tr := range res.Transformations {
		out = append(out, tr.Ref())
	}
	for _, dv := range res.Derivations {
		out = append(out, dv.TR)
	}
	return strings.Join(out, ",")
}

// search runs q through the planner and the naive evaluator, and fails
// unless both return the same objects in the same order.
func search(t testing.TB, c *catalog.Catalog, kind Kind, q string) Results {
	t.Helper()
	res, err := Search(c, kind, q)
	if err != nil {
		t.Fatalf("Search(%q): %v", q, err)
	}
	e := mustParse(t, q)
	naive, err := runNaive(c, kind, e)
	if err != nil {
		t.Fatalf("runNaive(%q): %v", q, err)
	}
	if resKey(res) != resKey(naive) {
		t.Fatalf("%q:\n planner %q\n naive   %q", q, resKey(res), resKey(naive))
	}
	return res
}

func TestDatasetQueries(t *testing.T) { eachShardCount(t, testDatasetQueries) }

func testDatasetQueries(t *testing.T, shards int) {
	c := fixtureShards(t, shards)
	cases := []struct {
		q    string
		want string
	}{
		{`*`, "brg1,brg2,clusters,raw1,raw2"},
		{`name = raw1`, "raw1"},
		{`name ~ "raw*"`, "raw1,raw2"},
		{`name != raw1 and name ~ "raw*"`, "raw2"},
		{`name ~ "*1" and derived`, "brg1"},
		{`name ~ "r?w[12]"`, "raw1,raw2"},
		{`attr.owner = annis and not derived and name ~ "raw2*"`, "raw2"},
		{`attr.owner = annis`, "raw1,raw2"},
		{`attr.owner = "annis" and attr.stripe = "82"`, "raw2"},
		{`attr.missing = x`, ""},
		{`type <= FITS-file`, "raw1,raw2"},
		{`type <= SDSS`, "brg1,brg2,raw1,raw2"}, // Object-map and FITS-file are both SDSS
		{`type <= "SDSS;Fileset"`, "raw1,raw2"}, // format narrows to Simple⊂Fileset
		{`derived`, "brg1,brg2,clusters"},
		{`not derived`, "raw1,raw2"},
		{`materialized`, "raw1,raw2"},
		{`virtual`, "brg1,brg2,clusters"}, // derived, no replicas yet
		{`descendantof(raw1)`, "brg1,clusters"},
		{`ancestorof(clusters)`, "brg1,brg2,raw1,raw2"},
		{`descendantof(raw1) and descendantof(raw2)`, "clusters"},
		{`derived or name = raw1`, "brg1,brg2,clusters,raw1"},
		{`not (derived or name = raw1)`, "raw2"},
	}
	for _, tc := range cases {
		if got := names(search(t, c, KDataset, tc.q)); got != tc.want {
			t.Errorf("%q:\n got %q\nwant %q", tc.q, got, tc.want)
		}
	}
}

func TestTransformationQueries(t *testing.T) { eachShardCount(t, testTransformationQueries) }

func testTransformationQueries(t *testing.T, shards int) {
	c := fixtureShards(t, shards)
	cases := []struct {
		q    string
		want string
	}{
		{`input <= FITS-file`, "sdss::brgSearch"},
		{`input <= Object-map`, "sdss::bcgSearch"},
		{`output <= Object-map`, "sdss::brgSearch"},
		{`compound`, "sdss::pipeline"},
		{`simple`, "sdss::bcgSearch,sdss::brgSearch"},
		{`attr.author = annis`, "sdss::brgSearch"},
		{`name ~ "sdss::b*"`, "sdss::bcgSearch,sdss::brgSearch"},
		{`name ~ "sdss::b*" and name != sdss::bcgSearch`, "sdss::brgSearch"},
		{`simple and name ~ "*Search"`, "sdss::bcgSearch,sdss::brgSearch"},
		// Untyped formals accept the universal type.
		{`input <= Dataset`, "sdss::bcgSearch,sdss::brgSearch,sdss::pipeline"},
	}
	for _, tc := range cases {
		if got := names(search(t, c, KTransformation, tc.q)); got != tc.want {
			t.Errorf("%q:\n got %q\nwant %q", tc.q, got, tc.want)
		}
	}
}

func TestDerivationQueries(t *testing.T) { eachShardCount(t, testDerivationQueries) }

func testDerivationQueries(t *testing.T, shards int) {
	c := fixtureShards(t, shards)
	cases := []struct {
		q    string
		want int
	}{
		{`tr = sdss::brgSearch`, 2},
		{`tr = sdss::bcgSearch`, 1},
		{`consumes(raw1)`, 1},
		{`produces(clusters)`, 1},
		{`executed`, 1},
		{`not executed`, 2},
		{`attr.campaign = dr1`, 1},
		{`consumes(brg1) and consumes(brg2)`, 1},
	}
	for _, tc := range cases {
		res := search(t, c, KDerivation, tc.q)
		if len(res.Derivations) != tc.want {
			t.Errorf("%q: got %d derivations, want %d", tc.q, len(res.Derivations), tc.want)
		}
	}
}

func TestTRVersionlessMatch(t *testing.T) { eachShardCount(t, testTRVersionlessMatch) }

// testTRVersionlessMatch has derivations cite a transformation both by
// version and by its bare name, so a versionless `tr =` finds members in
// both TR index families (exact ref and versionless base) and must count
// the ones filed under both once.
func testTRVersionlessMatch(t *testing.T, shards int) {
	c := catalog.NewSharded(nil, shards)
	for _, ver := range []string{"", "1.3", "1.4"} {
		tr := schema.Transformation{Name: "sim", Version: ver, Kind: schema.Simple, Exec: "/bin/sim",
			Args: []schema.FormalArg{{Name: "o", Direction: schema.Out}, {Name: "i", Direction: schema.In}}}
		if err := c.AddTransformation(tr); err != nil {
			t.Fatal(err)
		}
	}
	for i, ref := range []string{"sim:1.3", "sim:1.3", "sim:1.4", "sim", "sim", "sim"} {
		if _, err := c.AddDerivation(schema.Derivation{TR: ref, Params: map[string]schema.Actual{
			"o": schema.DatasetActual("output", fmt.Sprintf("o%d", i)),
			"i": schema.DatasetActual("input", fmt.Sprintf("i%d", i)),
		}}); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		q    string
		want int
	}{
		{`tr = sim`, 6},
		{`tr = sim:1.3`, 2},
		{`tr = sim:1.4`, 1},
		{`tr = sim:1.5`, 0},
		{`tr = sim and consumes(i3)`, 1},
		{`tr = sim and not consumes(i3)`, 5},
	} {
		if res := search(t, c, KDerivation, tc.q); len(res.Derivations) != tc.want {
			t.Errorf("%q: got %d derivations, want %d", tc.q, len(res.Derivations), tc.want)
		}
	}
	want := `index derivations: [tr = sim ->6] => 6 candidates`
	if got, err := Explain(c, KDerivation, mustParse(t, `tr = sim`)); err != nil || got != want {
		t.Errorf("Explain(tr = sim) = %q, %v; want %q", got, err, want)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`name`,
		`name =`,
		`name >> x`,
		`attr. = x`,
		`(name = x`,
		`name = x )`,
		`bogus = 3`,
		`type <=`,
		`descendantof raw1`,
		`descendantof(raw1`,
		`"quoted head"`,
		`tr sim`,
		`not`,
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("accepted invalid query %q", q)
		}
	}
}

func TestRunErrors(t *testing.T) {
	c := fixture(t)
	// Relationship against unknown dataset surfaces the catalog error.
	if _, err := Search(c, KDataset, `descendantof(ghost)`); err == nil {
		t.Error("unknown dataset in relationship accepted")
	}
	// A bad glob pattern is a parse error, whatever the catalog holds.
	for _, q := range []string{`name ~ "[unclosed"`, `attr.owner ~ "[a"`, `name = nosuch and name ~ "a[]"`} {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q): bad pattern accepted", q)
		}
		if _, err := Search(catalog.New(nil), KDataset, q); err == nil {
			t.Errorf("Search(%q) on an empty catalog: bad pattern accepted", q)
		}
	}
	if _, err := Run(c, Kind(42), All); err == nil {
		t.Error("bad kind accepted")
	}
}

func TestExprStringReparses(t *testing.T) {
	queries := []string{
		`name = raw1`,
		`name ~ "raw*" and not derived`,
		`(attr.owner = annis or materialized) and type <= SDSS`,
		`descendantof(raw1) or ancestorof(clusters)`,
		`tr = sdss::brgSearch`,
		`executed`,
	}
	c := fixture(t)
	for _, q := range queries {
		e, err := Parse(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		e2, err := Parse(e.String())
		if err != nil {
			t.Fatalf("reparse %q (from %q): %v", e.String(), q, err)
		}
		// Semantic check: both run to the same result.
		r1, err := Run(c, KDataset, e)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := Run(c, KDataset, e2)
		if err != nil {
			t.Fatal(err)
		}
		if names(r1) != names(r2) {
			t.Errorf("%q: round-tripped expression differs: %q vs %q", q, names(r1), names(r2))
		}
	}
}

// TestDerivedFlagSurvivesUpdate: replacing a derived dataset's record,
// which carries no producer, leaves it derived and virtual.
func TestDerivedFlagSurvivesUpdate(t *testing.T) {
	c := fixture(t)
	ds, err := c.Dataset("clusters")
	if err != nil {
		t.Fatal(err)
	}
	ds.CreatedBy, ds.Attrs = "", schema.Attributes{"rev": "2"}
	if err := c.UpdateDataset(ds); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{`name = clusters and derived`, `name = clusters and virtual`, `attr.rev = 2 and derived`} {
		if res := search(t, c, KDataset, q); len(res.Datasets) != 1 {
			t.Errorf("%s: %d results, want 1", q, len(res.Datasets))
		}
	}
}

func TestVirtualVsMaterializedSearch(t *testing.T) {
	// The paper: "users may wish to search for data that may exist as
	// data and/or in terms of recipes for generating that data."
	c := fixture(t)
	// clusters exists only as a recipe.
	res := search(t, c, KDataset, `name = clusters and virtual`)
	if len(res.Datasets) != 1 {
		t.Fatal("clusters should be virtual")
	}
	// Materialize it; it is no longer virtual.
	if err := c.AddReplica(schema.Replica{ID: "r-cl", Dataset: "clusters", Site: "anl", PFN: "/c"}); err != nil {
		t.Fatal(err)
	}
	res = search(t, c, KDataset, `name = clusters and virtual`)
	if len(res.Datasets) != 0 {
		t.Error("materialized dataset still reported virtual")
	}
	res = search(t, c, KDataset, `name = clusters and materialized and derived`)
	if len(res.Datasets) != 1 {
		t.Error("materialized derived search failed")
	}
}
