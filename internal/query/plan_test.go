package query

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"chimera/internal/catalog"
	"chimera/internal/schema"
)

func mustParse(t testing.TB, q string) Expr {
	t.Helper()
	e, err := Parse(q)
	if err != nil {
		t.Fatalf("Parse(%q): %v", q, err)
	}
	return e
}

// resKey identifies a result set exactly: dataset names, transformation
// refs and derivation IDs in result order.
func resKey(res Results) string {
	var out []string
	for _, d := range res.Datasets {
		out = append(out, d.Name)
	}
	for _, tr := range res.Transformations {
		out = append(out, tr.Ref())
	}
	for _, dv := range res.Derivations {
		out = append(out, dv.ID)
	}
	return strings.Join(out, ",")
}

func TestExplain(t *testing.T) { eachShardCount(t, testExplain) }

func testExplain(t *testing.T, shards int) {
	c := fixtureShards(t, shards)
	cases := []struct {
		kind Kind
		q    string
		want string
	}{
		// Indexed conjuncts intersect smallest-first.
		{KDataset, `materialized and name = raw1`,
			`index datasets: [name = "raw1" ->1] ∩ [materialized ->2] => 1 candidate`},
		// Name conjuncts on datasets and transformations are tested on the
		// key, before the candidate is counted or loaded. A glob with a
		// literal prefix ranges the ordered names, and drives when the range
		// is no larger than the smallest indexed set ...
		{KDataset, `derived and name ~ "b*"`,
			`index datasets: [name ~ "b*" range ->2] ∩ [derived ->3] => 2 candidates`},
		// ... which drives otherwise, the glob a key test.
		{KDataset, `name = raw1 and name ~ "r*"`,
			`index datasets: [name = "raw1" ->1] ∩ [name ~ "r*" key] => 1 candidate`},
		// Of two prefixes the longer ranges; the other is tested on its names.
		{KDataset, `name ~ "r*" and name ~ "raw1*"`,
			`index datasets: [name ~ "raw1*" range ->1] ∩ [name ~ "r*" key] => 1 candidate`},
		{KTransformation, `name ~ "sdss::b*"`,
			`index transformations: [name ~ "sdss::b*" range ->2] => 2 candidates`},
		{KTransformation, `attr.author = annis and name != sdss::pipeline and simple`,
			`index transformations: [attr.author = "annis" ->1] ∩ [name != "sdss::pipeline" key] => 1 candidate; residual: simple`},
		// A derivation's display name is not its key: residual.
		{KDerivation, `executed and name ~ "x*"`,
			`index derivations: [executed ->1] => 1 candidate; residual: name ~ "x*"`},
		// `virtual` is the derived parts with the flag set probed per candidate.
		{KDataset, `virtual and attr.owner = annis`,
			`index datasets: [attr.owner = "annis" ->2] ∩ [derived ->3] ∩ [not materialized key] => 0 candidates`},
		// Other non-indexable conjuncts become the residual.
		{KDataset, `derived and attr.owner != annis`,
			`index datasets: [derived ->3] => 3 candidates; residual: attr.owner != "annis"`},
		{KDataset, `name ~ "raw*"`, `index datasets: [name ~ "raw*" range ->2] => 2 candidates`},
		{KDataset, `not derived and name ~ "raw*"`,
			`index datasets: [name ~ "raw*" range ->2] => 2 candidates; residual: not derived`},
		// No indexable conjunct and no literal prefix: scan fallback, over
		// the keys when there is a name conjunct to test them with.
		{KDataset, `name ~ "*1"`, `scan datasets: [name ~ "*1" key]`},
		{KDataset, `not derived and name != raw1`, `scan datasets: [name != "raw1" key]; residual: not derived`},
		{KDataset, `not derived`, `scan datasets: no indexable conjunct`},
		// `*` constrains nothing.
		{KDataset, `*`, `scan datasets: no indexable conjunct`},
		// Kind-mismatched predicates are constant-false, not residual.
		{KDerivation, `derived`, `index derivations: [derived ->0] => 0 candidates`},
		{KTransformation, `materialized`,
			`index transformations: [materialized ->0] => 0 candidates`},
		{KDerivation, `tr = sdss::bcgSearch and executed`,
			`index derivations: [tr = sdss::bcgSearch ->1] ∩ [executed ->1] => 1 candidate`},
	}
	for _, tc := range cases {
		got, err := Explain(c, tc.kind, mustParse(t, tc.q))
		if err != nil {
			t.Errorf("Explain(%q): %v", tc.q, err)
			continue
		}
		if got != tc.want {
			t.Errorf("Explain(%q):\n got %q\nwant %q", tc.q, got, tc.want)
		}
	}
}

func TestExplainErrors(t *testing.T) {
	c := fixture(t)
	if _, err := Explain(c, KDataset, mustParse(t, `descendantof(ghost)`)); err == nil {
		t.Error("Explain accepted unknown dataset in provenance closure")
	}
	if _, err := Explain(c, Kind(42), All); err == nil {
		t.Error("Explain accepted invalid kind")
	}
}

// TestRunScanEquivalence asserts the planner returns exactly what the
// naive evaluator (naive_test.go) returns — same objects, same order —
// across all kinds, including kind-mismatched and empty-result queries.
func TestRunScanEquivalence(t *testing.T) { eachShardCount(t, testRunScanEquivalence) }

func testRunScanEquivalence(t *testing.T, shards int) {
	c := fixtureShards(t, shards)
	cases := []struct {
		kind Kind
		qs   []string
	}{
		{KDataset, []string{
			`*`,
			`name = raw1`,
			`name = missing`,
			`name ~ "raw*"`,
			`name != raw1 and name ~ "raw*"`,
			`name ~ "*"`,
			`name ~ "[a-c]*" and derived and name != brg2`,
			`attr.owner = annis and not derived and name ~ "raw1*"`,
			`name ~ "zzz*" and materialized`,
			`not (name ~ "raw*")`,
			`attr.owner ~ "ann*"`,
			`attr.owner = annis`,
			`attr.owner = "annis" and attr.stripe = "82"`,
			`attr.missing = x`,
			`type <= FITS-file`,
			`type <= SDSS`,
			`type <= "SDSS;Fileset"`,
			`type <= Dataset and derived`,
			`derived`,
			`not derived`,
			`materialized`,
			`virtual`,
			`virtual and descendantof(raw1)`,
			`virtual and name ~ "brg*"`,
			`virtual and materialized`,
			`descendantof(raw1)`,
			`ancestorof(clusters)`,
			`descendantof(raw1) and descendantof(raw2)`,
			`derived or name = raw1`,
			`not (derived or name = raw1)`,
			`materialized and name = raw1 and attr.owner = annis`,
			// Kind mismatches: constant-false on both paths.
			`executed`,
			`tr = sdss::brgSearch`,
			`consumes(raw1)`,
			`produces(clusters)`,
			`input <= FITS-file`,
			`simple`,
		}},
		{KTransformation, []string{
			`*`,
			`name = sdss::brgSearch`,
			`name = nosuch::tr`,
			`input <= FITS-file`,
			`output <= Object-map`,
			`compound`,
			`simple`,
			`simple and attr.author = annis`,
			`attr.author = annis`,
			`name ~ "sdss::b*"`,
			`name ~ "sdss::b*" and simple and name != sdss::brgSearch`,
			`attr.author = annis and name ~ "sdss::*"`,
			`input <= Dataset`,
			`derived`,
			`materialized`,
			`descendantof(raw1)`,
		}},
		{KDerivation, []string{
			`*`,
			`tr = sdss::brgSearch`,
			`tr = sdss::bcgSearch`,
			`tr = nosuch::tr`,
			`tr = sdss::brgSearch:1.0`,
			`name ~ "*" and executed`,
			`name != x`,
			`consumes(raw1)`,
			`consumes(missing)`,
			`produces(clusters)`,
			`produces(raw1)`,
			`executed`,
			`not executed`,
			`attr.campaign = dr1`,
			`attr.campaign = dr1 and tr = sdss::bcgSearch`,
			`consumes(brg1) and consumes(brg2)`,
			`tr = sdss::brgSearch and consumes(raw1)`,
			`produces(clusters) and executed`,
			`derived`,
			`materialized`,
			`type <= SDSS`,
		}},
	}
	for _, group := range cases {
		for _, q := range group.qs {
			e := mustParse(t, q)
			idx, err := Run(c, group.kind, e)
			if err != nil {
				t.Errorf("Run(kind %d, %q): %v", group.kind, q, err)
				continue
			}
			naive, err := runNaive(c, group.kind, e)
			if err != nil {
				t.Errorf("runNaive(kind %d, %q): %v", group.kind, q, err)
				continue
			}
			if resKey(idx) != resKey(naive) {
				t.Errorf("kind %d %q:\n planner %q\n naive   %q",
					group.kind, q, resKey(idx), resKey(naive))
			}
		}
	}
}

// TestRunScanErrorEquivalence: queries that fail must fail on both
// the planner and the naive evaluator, even when the planner detects
// the error at plan time.
func TestRunScanErrorEquivalence(t *testing.T) { eachShardCount(t, testRunScanErrorEquivalence) }

func testRunScanErrorEquivalence(t *testing.T, shards int) {
	c := fixtureShards(t, shards)
	for _, q := range []string{`descendantof(ghost)`, `ancestorof(ghost)`} {
		e := mustParse(t, q)
		if _, err := Run(c, KDataset, e); err == nil {
			t.Errorf("Run(%q): expected error", q)
		}
		if _, err := runNaive(c, KDataset, e); err == nil {
			t.Errorf("runNaive(%q): expected error", q)
		}
	}
}

// TestQueryDuringMutationStorm runs indexed queries concurrently with
// epoch-bump and derivation storms (run with -race). Every query sees
// one consistent snapshot: `name = hot and materialized` can never miss,
// because the epoch bump and the replica restamp are one atomic
// mutation.
func TestQueryDuringMutationStorm(t *testing.T) {
	c := catalog.New(nil)
	if err := c.AddDataset(schema.Dataset{Name: "hot"}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddReplica(schema.Replica{ID: "r-hot", Dataset: "hot", Site: "s", PFN: "/hot"}); err != nil {
		t.Fatal(err)
	}
	tr := schema.Transformation{Namespace: "st", Name: "gen", Kind: schema.Simple, Exec: "/bin/gen",
		Args: []schema.FormalArg{
			{Name: "o", Direction: schema.Out},
			{Name: "i", Direction: schema.In},
		}}
	if err := c.AddTransformation(tr); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if _, err := c.BumpEpoch("hot", true); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if _, err := c.AddDerivation(schema.Derivation{TR: "st::gen", Params: map[string]schema.Actual{
				"o": schema.DatasetActual("output", fmt.Sprintf("out%d", i)),
				"i": schema.DatasetActual("input", "hot"),
			}}); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	hot := mustParse(t, `name = hot and materialized`)
	derived := mustParse(t, `derived`)
	var readWG sync.WaitGroup
	for r := 0; r < 4; r++ {
		readWG.Add(1)
		go func() {
			defer readWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := Run(c, KDataset, hot)
				if err != nil {
					t.Error(err)
					return
				}
				if len(res.Datasets) != 1 {
					t.Error("query observed torn epoch/replica state")
					return
				}
				dres, err := Run(c, KDataset, derived)
				if err != nil {
					t.Error(err)
					return
				}
				dvres, err := Run(c, KDerivation, All)
				if err != nil {
					t.Error(err)
					return
				}
				// Each derivation registers exactly one derived output;
				// separate Runs take separate snapshots, so the counts
				// can only drift forward, never disagree downward.
				if len(dvres.Derivations) < len(dres.Datasets) {
					t.Errorf("%d derivations but %d derived datasets", len(dvres.Derivations), len(dres.Datasets))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readWG.Wait()
	if err := c.CheckIndexes(); err != nil {
		t.Error(err)
	}
}
