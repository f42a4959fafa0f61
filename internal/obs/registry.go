// Package obs is the observability substrate for the virtual data
// grid: a concurrency-safe metrics registry exposed in Prometheus text
// format, and a lightweight span tracer with a Chrome trace-event
// exporter. It is stdlib-only so every layer of the system can depend
// on it without pulling in external collectors.
//
// Metrics are organized as labeled families. Hot paths should resolve
// their series once (package init or struct construction) and hold the
// returned *Counter/*Gauge/*Histogram, whose update operations are
// single atomic instructions — no locks, no allocation:
//
//	var ops = obs.Default.CounterVec("vdc_catalog_ops_total", "Catalog ops.", "op")
//	var opAdd = ops.With("add_dataset")
//	...
//	opAdd.Inc()
//
// Registration is get-or-create: asking for an existing family with
// the same kind and labels returns it, so independent packages (and
// repeated test setups) can declare the metrics they use.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// TimeBuckets are the default latency histogram bounds in seconds,
// spanning microsecond WAL appends to multi-second snapshots.
var TimeBuckets = []float64{
	1e-6, 1e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1, 5, 10,
}

// Default is the process-wide registry; the packages of this repo
// register their metric families here.
var Default = NewRegistry()

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Counter is a monotonically increasing event count.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (CAS loop; gauges are not on single-instruction hot
// paths the way counters are).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution. Buckets are upper bounds
// in ascending order; an implicit +Inf bucket catches the tail.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1
	sum    atomic.Uint64   // float64 bits
	count  atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since t0.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(time.Since(t0).Seconds()) }

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of recorded samples.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// family is one named metric with a set of labeled series.
type family struct {
	name    string
	help    string
	kind    metricKind
	labels  []string
	buckets []float64 // histograms only

	mu     sync.RWMutex
	series map[string]any // label-values key -> *Counter/*Gauge/*Histogram
}

const labelSep = "\x1f"

func (f *family) get(values []string) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, labelSep)
	f.mu.RLock()
	s, ok := f.series[key]
	f.mu.RUnlock()
	if ok {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	var nw any
	switch f.kind {
	case kindCounter:
		nw = &Counter{}
	case kindGauge:
		nw = &Gauge{}
	default:
		h := &Histogram{bounds: f.buckets}
		h.counts = make([]atomic.Uint64, len(f.buckets)+1)
		nw = h
	}
	f.series[key] = nw
	return nw
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// With resolves (creating if needed) the series for the label values.
func (v *CounterVec) With(values ...string) *Counter { return v.f.get(values).(*Counter) }

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// With resolves the series for the label values.
func (v *GaugeVec) With(values ...string) *Gauge { return v.f.get(values).(*Gauge) }

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// With resolves the series for the label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.get(values).(*Histogram) }

// Registry holds metric families and renders them as Prometheus text.
type Registry struct {
	mu         sync.Mutex
	families   map[string]*family
	collectors []func()

	runtimeOn atomic.Bool // EnableRuntimeMetrics already wired
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) family(name, help string, kind metricKind, buckets []float64, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered as a different kind or label set", name))
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind,
		labels: append([]string(nil), labels...),
		series: make(map[string]any),
	}
	if kind == kindHistogram {
		if len(buckets) == 0 {
			buckets = TimeBuckets
		}
		f.buckets = append([]float64(nil), buckets...)
		sort.Float64s(f.buckets)
	}
	r.families[name] = f
	return f
}

// Counter registers (or retrieves) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.family(name, help, kindCounter, nil, nil).get(nil).(*Counter)
}

// CounterVec registers (or retrieves) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.family(name, help, kindCounter, nil, labels)}
}

// Gauge registers (or retrieves) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.family(name, help, kindGauge, nil, nil).get(nil).(*Gauge)
}

// GaugeVec registers (or retrieves) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.family(name, help, kindGauge, nil, labels)}
}

// Histogram registers (or retrieves) an unlabeled histogram. Nil
// buckets means TimeBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.family(name, help, kindHistogram, buckets, nil).get(nil).(*Histogram)
}

// HistogramVec registers (or retrieves) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.family(name, help, kindHistogram, buckets, labels)}
}

// RegisterCollector adds a hook run at the start of every
// WritePrometheus call, before families are rendered. Collectors
// refresh scrape-time gauges (runtime stats, queue depths sampled from
// live structures) so their cost is paid per scrape, not per event.
func (r *Registry) RegisterCollector(fn func()) {
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

// Names lists every registered family, sorted. Unlike WritePrometheus
// it includes labeled families no series of which has been resolved
// yet, so it is the complete catalog a process can ever expose.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// WritePrometheus renders every family in Prometheus text exposition
// format (sorted by family name, then label values). Registered
// collectors run first to refresh scrape-time gauges.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	collectors := append([]func(){}, r.collectors...)
	r.mu.Unlock()
	for _, fn := range collectors {
		fn()
	}

	names := r.Names() // families are never unregistered
	r.mu.Lock()
	fams := make([]*family, 0, len(names))
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		f.write(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *family) write(b *strings.Builder) {
	f.mu.RLock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	type row struct {
		key string
		s   any
	}
	rows := make([]row, 0, len(keys))
	for _, k := range keys {
		rows = append(rows, row{k, f.series[k]})
	}
	f.mu.RUnlock()
	if len(rows) == 0 {
		return
	}

	fmt.Fprintf(b, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)
	for _, r := range rows {
		var values []string
		if r.key != "" || len(f.labels) > 0 {
			values = strings.Split(r.key, labelSep)
		}
		switch s := r.s.(type) {
		case *Counter:
			fmt.Fprintf(b, "%s%s %d\n", f.name, labelString(f.labels, values, "", ""), s.Value())
		case *Gauge:
			fmt.Fprintf(b, "%s%s %s\n", f.name, labelString(f.labels, values, "", ""), formatFloat(s.Value()))
		case *Histogram:
			cum := uint64(0)
			for i, bound := range s.bounds {
				cum += s.counts[i].Load()
				fmt.Fprintf(b, "%s_bucket%s %d\n", f.name,
					labelString(f.labels, values, "le", formatFloat(bound)), cum)
			}
			fmt.Fprintf(b, "%s_bucket%s %d\n", f.name,
				labelString(f.labels, values, "le", "+Inf"), s.Count())
			fmt.Fprintf(b, "%s_sum%s %s\n", f.name, labelString(f.labels, values, "", ""), formatFloat(s.Sum()))
			fmt.Fprintf(b, "%s_count%s %d\n", f.name, labelString(f.labels, values, "", ""), s.Count())
		}
	}
}

// labelString renders {k="v",...}, optionally appending one extra pair
// (used for histogram "le"); it returns "" when there are no pairs.
func labelString(names, values []string, extraK, extraV string) string {
	if len(names) == 0 && extraK == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		v := ""
		if i < len(values) {
			v = values[i]
		}
		fmt.Fprintf(&b, "%s=%q", n, v)
	}
	if extraK != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", extraK, extraV)
	}
	b.WriteByte('}')
	return b.String()
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler returns an http.Handler serving the registry in Prometheus
// text format — mount it at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
