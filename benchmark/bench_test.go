package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"chimera/internal/obs"
)

// Same seed, same inputs, byte for byte; another seed, other inputs.
func TestScriptsAreDeterministicInTheSeed(t *testing.T) {
	generators := map[string]func(m *stormModel, seed int64, client, prefill int) *script{
		"analyst_hot":     analystHotScript,
		"discover_wide":   discoverWideScript,
		"ingest_durable":  ingestScript,
		"collab_analyst":  collabAnalystScript,
		"collab_producer": collabProducerScript,
	}
	const n = 500
	for name, gen := range generators {
		hash := func(seed int64, client int) string {
			return gen(newStormModel(300, seed), seed, client, 0).hash(n)
		}
		if a, b := hash(7, 0), hash(7, 0); a != b {
			t.Errorf("%s: seed 7 generated two different scripts: %s, %s", name, a, b)
		}
		if hash(7, 0) == hash(8, 0) {
			t.Errorf("%s: seeds 7 and 8 generated the same script", name)
		}
		if hash(7, 0) == hash(7, 1) {
			t.Errorf("%s: clients 0 and 1 got the same script", name)
		}
	}
}

func TestBaseDependsOnSeedOnlyInSizes(t *testing.T) {
	a, b := newStormModel(50, 1), newStormModel(50, 2)
	if a.base.Primary[0].Name != b.base.Primary[0].Name {
		t.Fatal("base names must not depend on the seed: expected answers are built from them")
	}
	same := true
	for i := range a.base.Primary {
		same = same && a.base.Primary[i].Size == b.base.Primary[i].Size
	}
	if same {
		t.Error("primary sizes are identical under two seeds")
	}
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

// BENCHMARK.json and the metric table must say the same thing, and both
// must keep to the naming rules the driver enforces.
func TestManifestMatchesTheMetricTable(t *testing.T) {
	m := readManifest(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, default window %d", m.RunSeconds, defaultSeconds)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "benchmark" {
		t.Errorf("paths %v, want [benchmark]", m.Paths)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)",
				i, m.Workloads[i].Name, m.Workloads[i].Why, w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: bad name, or why longer than 200 characters or one line (%d)", w.name, len(w.why))
		}
	}

	listed := map[string]bool{}
	check := func(section string, ms []manifestMetric, gate bool) {
		for _, mm := range ms {
			if listed[mm.Name] {
				t.Errorf("%s listed twice", mm.Name)
			}
			listed[mm.Name] = true
			d, ok := metricByName[mm.Name]
			if !ok {
				t.Errorf("%s: %s is not in the metric table", section, mm.Name)
				continue
			}
			if d.gate != gate || d.unit != mm.Unit || d.better != mm.Better {
				t.Errorf("%s: %s is %+v here, %+v in the table", section, mm.Name, mm, *d)
			}
			if gate && (mm.Bound == nil || *mm.Bound != d.bound || d.bound <= 0 || d.bound > 0.25) {
				t.Errorf("%s: bound of %s differs from the table's %v, or is outside (0, 0.25]", section, mm.Name, d.bound)
			}
			if !gate && mm.Bound != nil {
				t.Errorf("%s: per-layer metric %s has a bound", section, mm.Name)
			}
		}
	}
	check("end_to_end", m.EndToEnd, true)
	check("per_layer", m.PerLayer, false)
	for _, d := range metricDefs {
		if !listed[d.name] {
			t.Errorf("%s is in the metric table but not in BENCHMARK.json", d.name)
		}
		if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
			t.Errorf("%s (%s): name or unit breaks the naming rules", d.name, d.unit)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("%s: better is %q", d.name, d.better)
		}
	}
	if s := metricByName["setup_s"]; s == nil || !s.gate || s.unit != "s" || s.better != "lower" {
		t.Error("setup_s must be an end-to-end metric in seconds, lower is better")
	}
}

func TestJudge(t *testing.T) {
	lower := &metricDef{name: "x_ms", better: "lower", bound: 0.10}
	higher := &metricDef{name: "x_per_s", better: "higher", bound: 0.10}
	abs := &metricDef{name: "fail_ratio", better: "lower", abs: 0.001}
	v := func(x float64) metric { return metric{Value: x} }
	cases := []struct {
		d          *metricDef
		base, next float64
		want       string
	}{
		{lower, 100, 105, verdictWithin},
		{lower, 100, 111, verdictWorse},
		{lower, 100, 80, verdictBetter},
		{higher, 100, 95, verdictWithin},
		{higher, 100, 85, verdictWorse},
		{higher, 100, 120, verdictBetter},
		{lower, 0, 5, verdictUnresolved},
		{abs, 0, 0.0005, verdictWithin},
		{abs, 0, 0.002, verdictWorse},
	}
	for _, c := range cases {
		if got, _ := judge(c.d, v(c.base), v(c.next), true, true); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.d.name, c.base, c.next, got, c.want)
		}
	}
	if got, _ := judge(lower, v(1), v(1), true, false); got != verdictMissing {
		t.Errorf("value absent from the new file: %s, want missing", got)
	}
	if got, _ := judge(lower, v(1), v(1), false, true); got != verdictUnresolved {
		t.Errorf("value absent from the baseline: %s, want unresolved", got)
	}
}

// -compare must refuse files that were not measured alike and a new file
// that dropped a workload or a judged metric; neither may exit 0.
func TestCompareExitStatus(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, seed int64, workloads ...*workloadResult) string {
		path := filepath.Join(dir, name)
		data, err := json.Marshal(resultFile{Seed: seed, WindowS: 10, Workloads: workloads})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	result := func(workload string, metrics map[string]float64) *workloadResult {
		r := &workloadResult{Workload: workload, Metrics: map[string]metric{}}
		for name, v := range metrics {
			r.Metrics[name] = metric{Value: v}
		}
		return r
	}
	gated := map[string]float64{}
	for _, d := range metricDefs {
		if d.gate {
			gated[d.name] = 1
		}
	}
	gated["fail_ratio"] = 0
	sim := map[string]float64{"sim_makespan_s": 100, "sim_wan_gb": 5, "derivations_per_s": 1}
	for name, v := range gated {
		sim[name] = v
	}
	withoutTail := map[string]float64{}
	for name, v := range gated {
		if name != "op_tail_ms" {
			withoutTail[name] = v
		}
	}
	base := write("base.json", 1, result(wlFederationSync, gated), result(wlWorkflowRun, sim))
	cases := []struct {
		name string
		next string
		want int
	}{
		{"the same file", base, 0},
		{"another seed", write("seed.json", 2, result(wlFederationSync, gated), result(wlWorkflowRun, sim)), 1},
		{"a workload dropped", write("dropped.json", 1, result(wlWorkflowRun, sim)), 1},
		{"a gated metric dropped", write("metric.json", 1, result(wlFederationSync, withoutTail), result(wlWorkflowRun, sim)), 1},
	}
	for _, c := range cases {
		var out bytes.Buffer
		if got := runCompare(base, c.next, &out); got != c.want {
			t.Errorf("%s: exit status %d, want %d\n%s", c.name, got, c.want, out.String())
		}
	}
}

func TestQuantileIsNearestRank(t *testing.T) {
	var s samples
	for i := 100; i >= 1; i-- {
		s = append(s, time.Duration(i)*time.Millisecond)
	}
	for q, want := range map[float64]float64{0.50: 50, 0.90: 90, 0.99: 99, 1: 100} {
		if got := s.quantile(q); got != want {
			t.Errorf("quantile(%v) of 1..100 ms = %v, want %v", q, got, want)
		}
	}
	if got := (samples{}).quantile(0.5); got != 0 {
		t.Errorf("quantile of no samples = %v, want 0", got)
	}
}

func TestParseScrape(t *testing.T) {
	sc := parseScrape("# HELP x y\nvdc_http_requests_total{route=\"GET /v1/info\",code=\"200\"} 7\n" +
		"vdc_http_requests_total{route=\"GET /v1/x\",code=\"404\"} 2\nvdc_go_goroutines 9\n")
	if got := sc.sum("vdc_http_requests_total"); got != 9 {
		t.Errorf("sum over the family: %v, want 9", got)
	}
	if got := sc.sum("vdc_http_requests_total", `code="2`); got != 7 {
		t.Errorf("sum over 2xx: %v, want 7", got)
	}
	if got := sc.sum("vdc_go_goroutines"); got != 9 {
		t.Errorf("unlabelled series: %v, want 9", got)
	}
}

// The smoke run: every workload end to end against a real vdcd, with
// the traced pass, at a size that takes seconds. Nothing may fail, every
// end-to-end metric must be reported by every workload and be non-zero,
// and between them the workloads must report every metric of the table.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("starts vdcd processes")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	work := t.TempDir()
	bin, err := buildServer(root, work)
	if err != nil {
		t.Fatal(err)
	}
	cfg := newConfig(work, bin, 3, 1, true)
	cfg.trace, cfg.tracer = true, obs.NewTracer()
	reported := map[string]bool{}
	for _, w := range workloads {
		res, err := w.run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Metrics["fail_ratio"].Value != 0 {
			t.Errorf("%s: correct=%v, %d of %d failed: %v", w.name, res.Correct, res.Failed, res.Attempted, res.Errors)
		}
		for name, m := range res.Metrics {
			reported[name] = true
			if metricByName[name].gate && !(m.Value > 0) {
				t.Errorf("%s: end-to-end metric %s is %v", w.name, name, m.Value)
			}
		}
		for _, d := range metricDefs {
			if _, ok := res.Metrics[d.name]; d.gate && !ok {
				t.Errorf("%s does not report end-to-end metric %s", w.name, d.name)
			}
		}
	}
	for _, d := range metricDefs {
		if !reported[d.name] {
			t.Errorf("no workload reports %s", d.name)
		}
	}
	if cfg.tracer.Len() == 0 {
		t.Error("the traced passes recorded no spans")
	}
}
