package workload

import (
	"errors"
	"reflect"
	"testing"

	"chimera/internal/catalog"
	"chimera/internal/query"
)

// TestAnalystStormDeterministic: the same configuration must yield the
// same base catalog and byte-identical scripts — two runs replay the
// exact same work.
func TestAnalystStormDeterministic(t *testing.T) {
	a := AnalystStorm{Analysts: 4, Chains: 50, Ops: 60, Seed: 5}
	b := AnalystStorm{Analysts: 4, Chains: 50, Ops: 60, Seed: 5}
	if !reflect.DeepEqual(a.Base(), b.Base()) {
		t.Fatal("Base differs across same-seed storms")
	}
	if !reflect.DeepEqual(a.Scripts(), b.Scripts()) {
		t.Fatal("Scripts differ across same-seed storms")
	}
	c := AnalystStorm{Analysts: 4, Chains: 50, Ops: 60, Seed: 6}
	if reflect.DeepEqual(a.Scripts(), c.Scripts()) {
		t.Fatal("different seeds produced identical scripts")
	}
	// The re-derivation request is deterministic per chain: every analyst
	// asking for chain 3's summary submits the same derivation.
	if !reflect.DeepEqual(a.SummaryDerivation(3), c.SummaryDerivation(3)) {
		t.Fatal("SummaryDerivation must not depend on the seed")
	}
}

// TestAnalystScriptsShape: the op mix is read-dominated (~80% discover,
// ~10% define, ~10% derive) and every discovery query parses.
func TestAnalystScriptsShape(t *testing.T) {
	s := AnalystStorm{Analysts: 16, Ops: 200, Seed: 18}
	scripts := s.Scripts()
	if len(scripts) != 16 {
		t.Fatalf("%d scripts, want 16", len(scripts))
	}
	total, counts := 0, map[OpKind]int{}
	for _, script := range scripts {
		if len(script) != 200 {
			t.Fatalf("script length %d, want 200", len(script))
		}
		for _, op := range script {
			total++
			counts[op.Kind]++
			switch op.Kind {
			case OpDiscover:
				if _, err := query.Parse(op.Query); err != nil {
					t.Fatalf("unparseable discovery query %q: %v", op.Query, err)
				}
				if op.QueryKind != query.KDataset && op.QueryKind != query.KDerivation {
					t.Fatalf("query %q has kind %d", op.Query, int(op.QueryKind))
				}
			case OpDefine:
				if op.Dataset.Name == "" || op.Dataset.Attrs["tag"] == "" {
					t.Fatalf("define op missing name or tag: %+v", op.Dataset)
				}
			case OpDerive:
				if op.Derivation.TR != "caves::summarize" {
					t.Fatalf("derive op cites %q", op.Derivation.TR)
				}
			}
		}
	}
	frac := func(k OpKind) float64 { return float64(counts[k]) / float64(total) }
	if f := frac(OpDiscover); f < 0.72 || f > 0.88 {
		t.Errorf("discover fraction %.2f, want ~0.80", f)
	}
	if f := frac(OpDefine); f < 0.05 || f > 0.15 {
		t.Errorf("define fraction %.2f, want ~0.10", f)
	}
	if f := frac(OpDerive); f < 0.05 || f > 0.15 {
		t.Errorf("derive fraction %.2f, want ~0.10", f)
	}
}

// TestAnalystStormReplaysOnCatalog: the base installs cleanly and every
// scripted op is valid against it — queries run, defines insert (or
// duplicate harmlessly on replay), derives collapse to ErrDuplicate
// reuse — leaving the catalog's indexes intact.
func TestAnalystStormReplaysOnCatalog(t *testing.T) {
	s := AnalystStorm{Analysts: 8, Chains: 40, Ops: 80, Seed: 18}
	c := catalog.New(nil)
	if err := s.Base().Install(c); err != nil {
		t.Fatal(err)
	}
	discovered := 0
	for _, script := range s.Scripts() {
		for _, op := range script {
			switch op.Kind {
			case OpDiscover:
				e, err := query.Parse(op.Query)
				if err != nil {
					t.Fatal(err)
				}
				res, err := query.Run(c, op.QueryKind, e)
				if err != nil {
					t.Fatalf("query %q: %v", op.Query, err)
				}
				discovered += len(res.Datasets) + len(res.Derivations)
			case OpDefine:
				if err := c.AddDataset(op.Dataset); err != nil {
					t.Fatalf("define %s: %v", op.Dataset.Name, err)
				}
			case OpDerive:
				if _, err := c.AddDerivation(op.Derivation); err != nil && !errors.Is(err, catalog.ErrDuplicate) {
					t.Fatalf("derive: %v", err)
				}
			}
		}
	}
	if discovered == 0 {
		t.Fatal("no discovery query matched anything")
	}
	if err := c.CheckIndexes(); err != nil {
		t.Fatal(err)
	}
}
