package bench

import (
	"strconv"
	"strings"
	"testing"
)

func cell(t *testing.T, tab Table, row int, col string) string {
	t.Helper()
	for i, c := range tab.Columns {
		if c == col {
			return tab.Rows[row][i]
		}
	}
	t.Fatalf("column %q not in %v", col, tab.Columns)
	return ""
}

func cellF(t *testing.T, tab Table, row int, col string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell(t, tab, row, col), 64)
	if err != nil {
		t.Fatalf("cell %s[%d] = %q not a number", col, row, cell(t, tab, row, col))
	}
	return v
}

func TestE1ProvenanceComplete(t *testing.T) {
	tab, err := E1HEP([]int{2, 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := range tab.Rows {
		if cell(t, tab, i, "complete") != "true" {
			t.Errorf("row %d: provenance incomplete: %v", i, tab.Rows[i])
		}
	}
	// Second config has 5x derivations.
	if cellF(t, tab, 1, "derivations") != 41 {
		t.Errorf("derivations: %v", tab.Rows[1])
	}
	if !strings.Contains(tab.String(), "E1") || !strings.Contains(tab.Markdown(), "###") {
		t.Error("rendering")
	}
}

func TestE2Scales(t *testing.T) {
	tab, err := E2ProvenanceScale([]int{100, 1000})
	if err != nil {
		t.Fatal(err)
	}
	if n := cellF(t, tab, 1, "derivations"); n < 900 {
		t.Errorf("size: %v", tab.Rows[1])
	}
	if inv := cellF(t, tab, 1, "invalidated"); inv <= 0 {
		t.Errorf("invalidation empty: %v", tab.Rows[1])
	}
}

func TestE3SpeedupShape(t *testing.T) {
	tab, err := E3SDSS(40, []int{1, 4, 16})
	if err != nil {
		t.Fatal(err)
	}
	s1 := cellF(t, tab, 0, "speedup")
	s4 := cellF(t, tab, 1, "speedup")
	s16 := cellF(t, tab, 2, "speedup")
	if s1 != 1 || !(s4 > 2) || !(s16 > s4) {
		t.Errorf("speedups: %g %g %g", s1, s4, s16)
	}
}

func TestE4ReuseMonotone(t *testing.T) {
	tab, err := E4Reuse([]float64{0, 0.5, 1})
	if err != nil {
		t.Fatal(err)
	}
	if cellF(t, tab, 0, "reused") != 0 {
		t.Errorf("no-overlap reuse: %v", tab.Rows[0])
	}
	if cellF(t, tab, 2, "computed-jobs") != 0 {
		t.Errorf("full-overlap compute: %v", tab.Rows[2])
	}
	if !(cellF(t, tab, 1, "work-saved-%") > 0) {
		t.Errorf("mid overlap saves nothing: %v", tab.Rows[1])
	}
	if !(cellF(t, tab, 2, "work-saved-%") == 100) {
		t.Errorf("full overlap: %v", tab.Rows[2])
	}
}

func TestE5CachingBeatsNone(t *testing.T) {
	tab, err := E5Replication(60, 10)
	if err != nil {
		t.Fatal(err)
	}
	byPolicy := map[string]int{}
	for i := range tab.Rows {
		byPolicy[cell(t, tab, i, "policy")] = i
	}
	noneWAN := cellF(t, tab, byPolicy["none"], "wan-GB")
	cacheWAN := cellF(t, tab, byPolicy["cache"], "wan-GB")
	if !(cacheWAN < noneWAN) {
		t.Errorf("caching did not reduce WAN: none=%g cache=%g", noneWAN, cacheWAN)
	}
	if cellF(t, tab, byPolicy["none"], "replicas-created") != 0 {
		t.Error("none policy created replicas")
	}
	if !(cellF(t, tab, byPolicy["cache"], "replicas-created") > 0) {
		t.Error("cache policy created no replicas")
	}
}

func TestE6ErrorShrinks(t *testing.T) {
	tab, err := E6Estimator([]int{0, 5, 100})
	if err != nil {
		t.Fatal(err)
	}
	e0 := cellF(t, tab, 0, "error-%")
	e100 := cellF(t, tab, 2, "error-%")
	if !(e0 > 50 && e100 < 10) {
		t.Errorf("error trajectory: %g -> %g", e0, e100)
	}
	if cell(t, tab, 2, "ranks-plans-correctly") != "true" {
		t.Error("ranking with history failed")
	}
}

func TestE7FederationResolves(t *testing.T) {
	tab, err := E7Federation([]int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	// Cross-catalog lineage spans all catalogs.
	if cellF(t, tab, 1, "xcat-lineage-steps") != 4 {
		t.Errorf("lineage steps: %v", tab.Rows[1])
	}
}

func TestE8TamperRejection(t *testing.T) {
	tab, err := E8Trust([]int{50})
	if err != nil {
		t.Fatal(err)
	}
	parts := strings.Split(cell(t, tab, 0, "tampered-rejected"), "/")
	if len(parts) != 2 || parts[0] != parts[1] {
		t.Errorf("tamper rejection: %v", tab.Rows[0])
	}
	if cell(t, tab, 0, "untrusted-rejected") != "true" {
		t.Error("untrusted signer accepted")
	}
}

func TestE9Crossover(t *testing.T) {
	tab, err := E9Shipping([]int64{10e6, 10e9})
	if err != nil {
		t.Fatal(err)
	}
	if got := cell(t, tab, 0, "auto-choice"); got != "ship-data" {
		t.Errorf("small data choice: %s", got)
	}
	if got := cell(t, tab, 1, "auto-choice"); got != "ship-procedure" {
		t.Errorf("large data choice: %s", got)
	}
	// Auto is never worse than both fixed policies.
	for i := range tab.Rows {
		auto := cellF(t, tab, i, "auto-s")
		sd := cellF(t, tab, i, "ship-data-s")
		sp := cellF(t, tab, i, "ship-proc-s")
		if auto > sd+1e-9 && auto > sp+1e-9 {
			t.Errorf("row %d: auto (%g) worse than both (%g, %g)", i, auto, sd, sp)
		}
	}
}

func TestE10RoundTrip(t *testing.T) {
	tab, err := E10VDL([]int{50})
	if err != nil {
		t.Fatal(err)
	}
	if cell(t, tab, 0, "roundtrip-ok") != "true" {
		t.Errorf("roundtrip: %v", tab.Rows[0])
	}
	// Each compound DV yields 2 leaves; 5 compounds of 50 + 45 simple.
	if cellF(t, tab, 0, "leaves") != 55 {
		t.Errorf("leaves: %v", tab.Rows[0])
	}
}

func TestA1IndexBeatsScan(t *testing.T) {
	tab, err := A1IndexVsScan([]int{500})
	if err != nil {
		t.Fatal(err)
	}
	if cell(t, tab, 0, "agree") != "true" {
		t.Errorf("scan and index disagree: %v", tab.Rows[0])
	}
	if !(cellF(t, tab, 0, "scan/indexed") > 2) {
		t.Errorf("index not faster: %v", tab.Rows[0])
	}
}

func TestA2TrackingWins(t *testing.T) {
	tab, err := A2PendingLoad(60, 16)
	if err != nil {
		t.Fatal(err)
	}
	byTracking := map[string]int{}
	for i := range tab.Rows {
		byTracking[cell(t, tab, i, "tracking")] = i
	}
	with := cellF(t, tab, byTracking["true"], "makespan-s")
	without := cellF(t, tab, byTracking["false"], "makespan-s")
	if !(with < without) {
		t.Errorf("tracking did not help: with=%g without=%g", with, without)
	}
}

func TestE17EconomyBeatsPopularityUnderPressure(t *testing.T) {
	tab, err := E17DynamicReplication([]int{1000}, 2)
	if err != nil {
		t.Fatal(err)
	}
	row := map[string]int{} // workload/policy -> row index
	for i := range tab.Rows {
		row[cell(t, tab, i, "workload")+"/"+cell(t, tab, i, "policy")] = i
	}
	for _, w := range []string{"sdss", "cms"} {
		if cellF(t, tab, row[w+"/none"], "replicas") != 0 {
			t.Errorf("%s: no-replication arm created replicas", w)
		}
		noneWAN := cellF(t, tab, row[w+"/none"], "wan-GB")
		popWAN := cellF(t, tab, row[w+"/popularity"], "wan-GB")
		if !(popWAN < noneWAN) {
			t.Errorf("%s: popularity did not cut WAN: none=%g pop=%g", w, noneWAN, popWAN)
		}
	}
	// The CMS community's large samples overwhelm the bounded caches:
	// the popularity arm stops replicating, the economy arm evicts cold
	// replicas and keeps winning on both WAN and makespan.
	if !(cellF(t, tab, row["cms/economy"], "evictions") > 0) {
		t.Error("cms: economy arm evicted nothing")
	}
	ecoWAN := cellF(t, tab, row["cms/economy"], "wan-GB")
	popWAN := cellF(t, tab, row["cms/popularity"], "wan-GB")
	if !(ecoWAN < popWAN) {
		t.Errorf("cms: economy WAN (%g) not below popularity (%g)", ecoWAN, popWAN)
	}
	if !(cellF(t, tab, row["cms/economy"], "makespan-s") < cellF(t, tab, row["cms/popularity"], "makespan-s")) {
		t.Errorf("cms: economy makespan not below popularity: %v", tab.Rows)
	}
}
