package main

import (
	"fmt"
	"sort"
)

// metricDef describes one metric the benchmark prints. The table below
// is the single source for names, units, directions and bounds:
// BENCHMARK.json repeats it for the driver and a test keeps the two
// identical.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// gate: listed under end_to_end in BENCHMARK.json, so reported by
	// every workload and never 0.
	gate bool
	// bound is the share of the baseline's value by which the metric
	// may worsen before -compare calls it worse; 0 means not judged.
	bound float64
	// abs is an absolute allowance used instead of bound (fail_ratio).
	abs float64
	// on lists the workloads on which -compare judges a metric that is
	// not gated; gated metrics are judged on all.
	on []string
}

const (
	wlAnalystHot     = "analyst_hot"
	wlDiscoverWide   = "discover_wide"
	wlIngestDurable  = "ingest_durable"
	wlCollabMix      = "collab_mix"
	wlFederationSync = "federation_sync"
	wlWorkflowRun    = "workflow_run"
)

var readWorkloads = []string{wlAnalystHot, wlDiscoverWide, wlCollabMix}
var writeWorkloads = []string{wlIngestDurable, wlCollabMix}

// metricDefs: first the end-to-end metrics every workload reports,
// then the end-to-end metrics that exist on some workloads only, then
// one group per layer.
var metricDefs = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", gate: true, bound: 0.25},
	{name: "ops_per_s", unit: "1/s", better: "higher", gate: true, bound: 0.25},
	{name: "op_p50_ms", unit: "ms", better: "lower", gate: true, bound: 0.25},
	{name: "op_tail_ms", unit: "ms", better: "lower", gate: true, bound: 0.25},
	{name: "rss_kb_per_object", unit: "KB", better: "lower", gate: true, bound: 0.25},
	{name: "disk_bytes_per_object", unit: "B", better: "lower", gate: true, bound: 0.02},

	{name: "read_p50_ms", unit: "ms", better: "lower", bound: 0.25, on: readWorkloads},
	{name: "read_p95_ms", unit: "ms", better: "lower", bound: 0.25, on: readWorkloads},
	{name: "read_p99_ms", unit: "ms", better: "lower"},
	{name: "write_p50_ms", unit: "ms", better: "lower", bound: 0.25, on: writeWorkloads},
	{name: "write_p95_ms", unit: "ms", better: "lower", bound: 0.25, on: writeWorkloads},
	{name: "write_p99_ms", unit: "ms", better: "lower"},
	{name: "server_rss_mb", unit: "MB", better: "lower", bound: 0.15, on: []string{wlAnalystHot, wlDiscoverWide}},
	{name: "fail_ratio", unit: "ratio", better: "lower", abs: 0.001,
		on: []string{wlAnalystHot, wlDiscoverWide, wlIngestDurable, wlCollabMix, wlFederationSync, wlWorkflowRun}},
	{name: "restart_s", unit: "s", better: "lower", bound: 0.25, on: []string{wlIngestDurable, wlFederationSync}},
	{name: "crawl_full_s", unit: "s", better: "lower", bound: 0.25, on: []string{wlFederationSync}},
	{name: "crawl_delta_p50_ms", unit: "ms", better: "lower", bound: 0.25, on: []string{wlFederationSync}},
	{name: "derivations_per_s", unit: "1/s", better: "higher", bound: 0.25, on: []string{wlWorkflowRun}},
	{name: "sim_makespan_s", unit: "s", better: "lower", bound: 0.01, on: []string{wlWorkflowRun}},
	{name: "sim_wan_gb", unit: "GB", better: "lower", bound: 0.01, on: []string{wlWorkflowRun}},

	{name: "vds.transport_us", unit: "us", better: "lower"},
	{name: "vds.handler_read_us", unit: "us", better: "lower"},
	{name: "vds.handler_write_us", unit: "us", better: "lower"},
	{name: "vds.self_us", unit: "us", better: "lower"},
	{name: "vds.handler_live_mean_us", unit: "us", better: "lower"},
	{name: "vds.resp_bytes_per_op", unit: "B", better: "lower"},
	{name: "vds.non2xx_total", unit: "count", better: "lower"},

	{name: "query.parse_us", unit: "us", better: "lower"},
	{name: "query.run_hit_us", unit: "us", better: "lower"},
	{name: "query.run_miss_us", unit: "us", better: "lower"},
	{name: "query.cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "query.rows_per_op", unit: "count", better: "lower"},

	{name: "catalog.view_pin_ns", unit: "ns", better: "lower"},
	{name: "catalog.apply_us", unit: "us", better: "lower"},
	{name: "catalog.mutate_us", unit: "us", better: "lower"},
	{name: "catalog.wal_commit_us", unit: "us", better: "lower"},
	{name: "catalog.fsync_us", unit: "us", better: "lower"},
	{name: "catalog.wal_records_per_fsync", unit: "count", better: "higher"},
	{name: "catalog.wal_bytes_per_op", unit: "B", better: "lower"},
	{name: "catalog.epoch_swaps_per_write", unit: "ratio", better: "lower"},
	{name: "catalog.lineage_us", unit: "us", better: "lower"},
	{name: "catalog.changes_since_us", unit: "us", better: "lower"},
	{name: "catalog.export_ms", unit: "ms", better: "lower"},
	{name: "catalog.snapshot_s", unit: "s", better: "lower"},
	{name: "catalog.open_s", unit: "s", better: "lower"},
	{name: "catalog.heap_bytes_per_object", unit: "B", better: "lower"},

	{name: "codec.json_encode_mb_s", unit: "MB/s", better: "higher"},
	{name: "codec.binary_encode_mb_s", unit: "MB/s", better: "higher"},
	{name: "codec.binary_decode_mb_s", unit: "MB/s", better: "higher"},
	{name: "codec.delta_bytes_per_change", unit: "B", better: "lower"},
	{name: "codec.snapshot_bytes_per_object", unit: "B", better: "lower"},

	{name: "federation.fetch_ms", unit: "ms", better: "lower"},
	{name: "federation.apply_us_per_change", unit: "us", better: "lower"},
	{name: "federation.unchanged_pass_ms", unit: "ms", better: "lower"},
	{name: "federation.bytes_per_pass", unit: "B", better: "lower"},
	{name: "federation.search_us", unit: "us", better: "lower"},

	{name: "dag.build_ms", unit: "ms", better: "lower"},
	{name: "planner.assign_us", unit: "us", better: "lower"},
	{name: "planner.plan_request_us", unit: "us", better: "lower"},
	{name: "estimator.estimate_ms", unit: "ms", better: "lower"},
	{name: "executor.overhead_us_per_node", unit: "us", better: "lower"},
	{name: "executor.record_us_per_node", unit: "us", better: "lower"},
	{name: "executor.dedup_ratio", unit: "ratio", better: "higher"},
	{name: "grid.events_per_s", unit: "1/s", better: "higher"},
	{name: "grid.replicas_created", unit: "count", better: "lower"},

	{name: "loadgen.client_cpu_share", unit: "ratio", better: "lower"},
	{name: "loadgen.open_p50_ms", unit: "ms", better: "lower"},
	{name: "loadgen.open_p99_ms", unit: "ms", better: "lower"},
	{name: "loadgen.open_late_p99_ms", unit: "ms", better: "lower"},
	{name: "loadgen.open_achieved_over_offered", unit: "ratio", better: "higher"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower"},
	{name: "trace.unattributed_ratio", unit: "ratio", better: "lower"},
}

var metricByName = func() map[string]*metricDef {
	m := make(map[string]*metricDef, len(metricDefs))
	for i := range metricDefs {
		m[metricDefs[i].name] = &metricDefs[i]
	}
	return m
}()

// judgedOn reports whether -compare applies d's bound on a workload.
func (d *metricDef) judgedOn(workload string) bool {
	if d.gate {
		return true
	}
	for _, w := range d.on {
		if w == workload {
			return true
		}
	}
	return false
}

// metric is one reported value. N is the number of samples behind a
// timing, where there are samples.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// workloadResult is everything one workload run reports.
type workloadResult struct {
	Workload  string            `json:"workload"`
	Why       string            `json:"why"`
	Seed      int64             `json:"seed"`
	WindowS   float64           `json:"window_s"`
	WarmupS   float64           `json:"warmup_s"`
	Clients   int               `json:"clients"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Correct   bool              `json:"correct"`
	Errors    []string          `json:"errors,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// Scrapes holds the final /metrics text of each vdcd the workload
	// ran, keyed by role.
	Scrapes map[string]string `json:"scrapes,omitempty"`
}

func newWorkloadResult(name, why string, cfg *config) *workloadResult {
	return &workloadResult{
		Workload: name, Why: why, Seed: cfg.seed,
		WindowS: cfg.window.Seconds(), WarmupS: cfg.warm.Seconds(), Clients: cfg.clients,
		Metrics: map[string]metric{}, Scrapes: map[string]string{},
	}
}

// set records a metric; the name must be in the table.
func (r *workloadResult) set(name string, value float64, n ...int) {
	d, ok := metricByName[name]
	if !ok {
		panic("benchmark: metric not in table: " + name)
	}
	m := metric{Value: value, Unit: d.unit}
	if len(n) > 0 {
		m.N = n[0]
	}
	r.Metrics[name] = m
}

// fail records a check that did not hold; the run then reports
// correct=false and the process exits non-zero.
func (r *workloadResult) fail(format string, args ...any) {
	if len(r.Errors) < 20 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// footprint records memory and disk per object. rssMB is the peak
// resident set of the process holding the catalog, which now holds
// `objects`; the directory grew from bytes0 to bytes1 while the catalog
// grew from objects0. Both are taken per object so that a server that
// ingests faster, and so holds more at the end of a fixed window, does
// not read as a regression; disk counts what the window added if it
// added anything (the WAL), else the whole directory (the snapshot).
func (r *workloadResult) footprint(rssMB float64, objects0, objects int, bytes0, bytes1 int64) {
	r.set("server_rss_mb", rssMB)
	r.set("rss_kb_per_object", rssMB*1024/float64(objects), objects)
	if objects > objects0 {
		r.set("disk_bytes_per_object", float64(bytes1-bytes0)/float64(objects-objects0), objects-objects0)
	} else {
		r.set("disk_bytes_per_object", float64(bytes1)/float64(objects), objects)
	}
}

// finish derives fail_ratio and the verdict. A gated metric that is
// missing or not positive is a failed check: the driver accepts neither.
func (r *workloadResult) finish() {
	if r.Attempted < 1 {
		r.Attempted = 1
		r.Failed = 1
		r.fail("no operation was attempted")
	}
	for _, d := range metricDefs {
		if m, ok := r.Metrics[d.name]; d.gate && (!ok || !(m.Value > 0)) {
			r.fail("end-to-end metric %s is missing or not positive (%v)", d.name, m.Value)
		}
	}
	r.set("fail_ratio", float64(r.Failed)/float64(r.Attempted), int(r.Attempted))
	r.Correct = r.Failed == 0 && len(r.Errors) == 0
}

// sortedMetricNames lists the recorded metrics in table order.
func (r *workloadResult) sortedMetricNames() []string {
	order := make(map[string]int, len(metricDefs))
	for i, d := range metricDefs {
		order[d.name] = i
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return order[names[i]] < order[names[j]] })
	return names
}
