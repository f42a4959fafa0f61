package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"chimera/internal/catalog"
	"chimera/internal/dag"
	"chimera/internal/executor"
	"chimera/internal/query"
	"chimera/internal/schema"
	"chimera/internal/vds"
	"chimera/internal/workload"
)

// E18Analysts is the analyst-storm experiment: N concurrent analysts
// replay identical CAVES-style scripts (zipfian discover/define/derive,
// workload.AnalystStorm) against the same catalog content through two
// read paths — the locked ordered-snapshot oracle (query.RunOracle /
// vds LockedReads: every shard read lock held per query, no result
// cache) and the lock-free epoch path (published snapshots + the
// plan/result cache) — while a background writer sustains ingest. It
// reports in-process query throughput, the HTTP p99 of the vds search
// endpoints, the plan-cache hit rate on the epoch arm, and the executor
// dedup hit rate for the storm's re-derivation requests; `agree`
// confirms both paths return identical results at quiescence.
func E18Analysts(analysts []int, ops int, window time.Duration) (Table, error) {
	t := Table{
		Experiment: "E18",
		Title:      fmt.Sprintf("analyst storm: locked snapshot reads vs lock-free epoch reads + plan cache (%d ops/analyst, %v windows)", ops, window),
		Columns: []string{"analysts", "locked-qps", "epoch-qps", "qps-x",
			"locked-p99-ms", "epoch-p99-ms", "cache-hit-%", "dedup-hit-%", "agree"},
		Metrics: map[string]float64{},
	}
	for _, n := range analysts {
		storm := workload.AnalystStorm{Analysts: n, Chains: 200, Depth: 3, Ops: ops, Seed: 18}
		scripts, err := e18Parse(storm)
		if err != nil {
			return t, err
		}
		locked, err := e18Arm(storm, scripts, window, true)
		if err != nil {
			return t, err
		}
		epoch, err := e18Arm(storm, scripts, window, false)
		if err != nil {
			return t, err
		}
		dedupRate, err := e18Dedup(storm, scripts)
		if err != nil {
			return t, err
		}

		speedup := 0.0
		if locked.qps > 0 {
			speedup = epoch.qps / locked.qps
		}
		t.Add(n, locked.qps, epoch.qps, speedup,
			locked.p99ms, epoch.p99ms, 100*epoch.cacheHit, 100*dedupRate,
			locked.agree && epoch.agree)
		pfx := fmt.Sprintf("analysts_%d_", n)
		t.Metrics[pfx+"locked_qps"] = locked.qps
		t.Metrics[pfx+"epoch_qps"] = epoch.qps
		t.Metrics[pfx+"qps_speedup"] = speedup
		t.Metrics[pfx+"locked_vds_p50_ms"] = locked.p50ms
		t.Metrics[pfx+"epoch_vds_p50_ms"] = epoch.p50ms
		t.Metrics[pfx+"locked_vds_p99_ms"] = locked.p99ms
		t.Metrics[pfx+"epoch_vds_p99_ms"] = epoch.p99ms
		t.Metrics[pfx+"plan_cache_hit_rate"] = epoch.cacheHit
		t.Metrics[pfx+"dedup_hit_rate"] = dedupRate
	}
	t.Notes = append(t.Notes,
		"the locked oracle serializes every query behind all shard read locks while the writer holds them for mutations; the epoch path reads immutable published snapshots (zero lock acquisitions) and answers zipf-repeated predicates from the plan cache, so its advantage widens with analyst count")
	return t, nil
}

// e18HTTPRate is the aggregate offered request rate (req/s) of the vds
// latency phase, split evenly across the analysts. It is deliberately
// below the service capacity of a single-core runner: at saturation
// p99 measures queue collapse (and punishes whichever arm serves more
// requests per GC cycle), while below it p99 isolates what the read
// path itself does to the tail — lock waits behind the ingest writer
// versus none.
const e18HTTPRate = 200

// e18Result is one arm's measurements.
type e18Result struct {
	qps      float64
	p50ms    float64
	p99ms    float64
	cacheHit float64
	agree    bool
}

// e18Op is a script op with its discover query pre-parsed, so both arms
// replay identical work with no parse cost in the measured window.
type e18Op struct {
	workload.AnalystOp
	expr query.Expr
}

// e18Parse expands the storm's scripts, parsing each distinct discover
// query once.
func e18Parse(storm workload.AnalystStorm) ([][]e18Op, error) {
	exprs := map[string]query.Expr{}
	raw := storm.Scripts()
	scripts := make([][]e18Op, len(raw))
	for a, script := range raw {
		scripts[a] = make([]e18Op, len(script))
		for i, op := range script {
			o := e18Op{AnalystOp: op}
			if op.Kind == workload.OpDiscover {
				e, ok := exprs[op.Query]
				if !ok {
					var err error
					if e, err = query.Parse(op.Query); err != nil {
						return nil, fmt.Errorf("E18: %q: %w", op.Query, err)
					}
					exprs[op.Query] = e
				}
				o.expr = e
			}
			scripts[a][i] = o
		}
	}
	return scripts, nil
}

// e18Arm builds a fresh catalog with the storm's base content and
// replays every analyst script concurrently under sustained ingest,
// first in-process (throughput) and then over HTTP against a vds server
// (latency). Each phase loops its scripts for a full measurement
// window — scripts are short, so a single pass would be over in
// milliseconds and the numbers would be scheduler noise; looping also
// reproduces how analysts actually behave (the same discovery queries
// re-run all session long). locked selects the read path.
func e18Arm(storm workload.AnalystStorm, scripts [][]e18Op, window time.Duration, locked bool) (e18Result, error) {
	var res e18Result
	// Arms run back to back in one process; start each from a collected
	// heap so the second isn't measured against the first's garbage.
	runtime.GC()
	cat := catalog.New(nil)
	base := storm.Base()
	if err := base.Install(cat); err != nil {
		return res, err
	}

	// Start each arm from an empty cache so the hit rate is the arm's
	// own. Epoch keys carry the catalog instance, so stale cross-arm
	// entries could never produce false hits anyway — this only keeps
	// the occupancy numbers honest.
	query.SetPlanCacheCapacity(0)
	query.SetPlanCacheCapacity(query.DefaultPlanCacheCapacity)
	cacheBefore := query.CacheStats()

	// Sustained ingest: one writer registers new tagged chains for the
	// whole measured window, throttled to a steady rate so both arms
	// face the same mutation pressure.
	stop := make(chan struct{})
	writerErr := make(chan error, 1)
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		tr := base.Transformations[0].Ref()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			dv := ingestDV(tr, fmt.Sprintf("storm.in.%06d", i), fmt.Sprintf("storm.out.%06d", i))
			if _, err := cat.AddDerivation(dv); err != nil && !errors.Is(err, catalog.ErrDuplicate) {
				writerErr <- err
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	// Phase 1: in-process replay, measuring discover throughput. A
	// start barrier keeps goroutine launch out of the window; every
	// analyst loops its script until the deadline.
	var discovers atomic.Int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	begin := make(chan struct{})
	for a := range scripts {
		wg.Add(1)
		go func(script []e18Op) {
			defer wg.Done()
			<-begin
			deadline := time.Now().Add(window)
			for time.Now().Before(deadline) {
				for _, op := range script {
					var err error
					switch op.Kind {
					case workload.OpDiscover:
						if locked {
							_, err = query.RunOracle(cat, op.QueryKind, op.expr)
						} else {
							_, err = query.Run(cat, op.QueryKind, op.expr)
						}
						discovers.Add(1)
					case workload.OpDefine:
						if err = cat.AddDataset(op.Dataset); errors.Is(err, catalog.ErrDuplicate) {
							err = nil
						}
					case workload.OpDerive:
						if _, err = cat.AddDerivation(op.Derivation); errors.Is(err, catalog.ErrDuplicate) {
							err = nil
						}
					}
					if err != nil {
						firstErr.CompareAndSwap(nil, err)
						return
					}
				}
			}
		}(scripts[a])
	}
	start := time.Now()
	close(begin)
	wg.Wait()
	res.qps = float64(discovers.Load()) / time.Since(start).Seconds()
	if err, _ := firstErr.Load().(error); err != nil {
		close(stop)
		writerWG.Wait()
		return res, err
	}

	// Phase 2: the same discover mix against the vds search endpoints,
	// recording per-request latency for the p99. Requests go straight
	// into the server's handler chain (mux, middleware, search, JSON
	// encoding) via ServeHTTP: on a single-core runner the loopback TCP
	// round-trip costs ~10x the entire request handling and would bury
	// the read path's contribution in network scheduling noise.
	srv := vds.NewServer("e18.bench", cat)
	srv.LockedReads = locked
	// The latency phase offers a *fixed* aggregate request rate split
	// across the analysts, rather than closed-loop saturation: p99 at
	// two different throughputs is not comparable (the faster arm would
	// be penalized for serving more requests per GC cycle), while p99 at
	// the same offered load isolates service latency plus queueing —
	// which is what an analyst experiences. Analysts do not catch up
	// after a slow response; a server that cannot sustain the load shows
	// it as tail latency.
	interval := time.Duration(len(scripts)) * time.Second / e18HTTPRate
	lats := make([][]float64, len(scripts))
	begin2 := make(chan struct{})
	for a := range scripts {
		// Pre-build each analyst's requests so the loop times the
		// request alone.
		var reqs []*http.Request
		for _, op := range scripts[a] {
			if op.Kind != workload.OpDiscover {
				continue
			}
			reqs = append(reqs, e18Request(op))
		}
		// Each analyst paces at the shared interval plus a small
		// deterministic per-analyst skew: identical intervals
		// phase-lock the fleet into periodic micro-herds whose queue
		// spikes would define the tail.
		pace := interval + interval*time.Duration(a%16)/160
		wg.Add(1)
		go func(a int, pace time.Duration, reqs []*http.Request) {
			defer wg.Done()
			<-begin2
			// Stagger first requests uniformly across one pacing
			// interval so the arrival process approximates the offered
			// rate from the first instant instead of opening with a
			// 256-deep thundering herd whose queueing drain would
			// dominate every percentile.
			time.Sleep(interval * time.Duration(a) / time.Duration(len(scripts)))
			deadline := time.Now().Add(2 * window)
			for time.Now().Before(deadline) {
				for _, req := range reqs {
					t0 := time.Now()
					rec := httptest.NewRecorder()
					srv.ServeHTTP(rec, req)
					lats[a] = append(lats[a], time.Since(t0).Seconds()*1e3)
					if rec.Code != http.StatusOK {
						firstErr.CompareAndSwap(nil, fmt.Errorf("E18: %s: %d", req.URL, rec.Code))
						return
					}
					if d := pace - time.Since(t0); d > 0 {
						time.Sleep(d)
					}
					if !time.Now().Before(deadline) {
						break
					}
				}
			}
		}(a, pace, reqs)
	}
	close(begin2)
	wg.Wait()
	close(stop)
	writerWG.Wait()
	select {
	case err := <-writerErr:
		return res, err
	default:
	}
	if err, _ := firstErr.Load().(error); err != nil {
		return res, err
	}

	var all []float64
	for _, l := range lats {
		all = append(all, l...)
	}
	res.p99ms = percentile(all, 0.99)
	res.p50ms = percentile(all, 0.50)

	after := query.CacheStats()
	hits := float64(after.Hits - cacheBefore.Hits)
	misses := float64(after.Misses - cacheBefore.Misses)
	if hits+misses > 0 {
		res.cacheHit = hits / (hits + misses)
	}

	// Quiescent agreement: both read paths must answer every distinct
	// script query identically once the writer has stopped.
	if err := cat.CheckPublished(); err != nil {
		return res, err
	}
	res.agree = true
	seen := map[string]bool{}
	for _, script := range scripts {
		for _, op := range script {
			if op.Kind != workload.OpDiscover || seen[op.Query] {
				continue
			}
			seen[op.Query] = true
			re, err := query.Run(cat, op.QueryKind, op.expr)
			if err != nil {
				return res, err
			}
			ro, err := query.RunOracle(cat, op.QueryKind, op.expr)
			if err != nil {
				return res, err
			}
			if !sameResults(re, ro) {
				res.agree = false
			}
			// The latency phase is only worth its numbers if the server
			// answered the query the analyst asked: the same request must
			// return as many rows as the in-process answer. (A mistyped
			// parameter is not an error to the server — it answers "*".)
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, e18Request(op))
			var rows []json.RawMessage
			if err := json.Unmarshal(rec.Body.Bytes(), &rows); err != nil {
				return res, fmt.Errorf("E18: %q over HTTP: status %d: %w", op.Query, rec.Code, err)
			}
			if want := len(re.Datasets) + len(re.Transformations) + len(re.Derivations); len(rows) != want {
				return res, fmt.Errorf("E18: %q returned %d rows over HTTP, %d in process", op.Query, len(rows), want)
			}
		}
	}
	return res, nil
}

// e18Request is the vds search request for a discover op.
func e18Request(op e18Op) *http.Request {
	path := "/v1/datasets"
	if op.QueryKind == query.KDerivation {
		path = "/v1/derivations"
	}
	return httptest.NewRequest(http.MethodGet, path+"?query="+url.QueryEscape(op.Query), nil)
}

// e18Dedup measures the executor's duplicate-derivation fast path on
// the storm's re-derivation requests: the collaboration's base chains
// have already executed (run 1), so when the storm's combined graph —
// base chains plus the analysts' distinct summary requests — is run
// with DedupExecuted, every already-executed node completes from the
// published epoch without dispatching. Returns dedup'd nodes / total
// nodes of the storm graph.
func e18Dedup(storm workload.AnalystStorm, scripts [][]e18Op) (float64, error) {
	cat := catalog.New(nil)
	base := storm.Base()
	if err := base.Install(cat); err != nil {
		return 0, err
	}
	var baseDVs []schema.Derivation
	for _, dv := range base.Derivations {
		stored, err := cat.AddDerivation(dv)
		if err != nil && !errors.Is(err, catalog.ErrDuplicate) {
			return 0, err
		}
		baseDVs = append(baseDVs, stored)
	}
	all := append([]schema.Derivation(nil), baseDVs...)
	seen := map[string]bool{}
	for _, script := range scripts {
		for _, op := range script {
			if op.Kind != workload.OpDerive {
				continue
			}
			stored, err := cat.AddDerivation(op.Derivation)
			if err != nil && !errors.Is(err, catalog.ErrDuplicate) {
				return 0, err
			}
			if !seen[stored.ID] {
				seen[stored.ID] = true
				all = append(all, stored)
			}
		}
	}

	assign := func(*dag.Node) (executor.Placement, error) { return executor.Placement{}, nil }

	// Run 1: the base chains execute for real, recording invocations.
	g, err := dag.Build(baseDVs, cat.Resolver())
	if err != nil {
		return 0, err
	}
	ex := &executor.Executor{Driver: &executor.NullDriver{}, Assign: assign, Catalog: cat}
	rep, err := ex.Run(g)
	if err != nil {
		return 0, err
	}
	if !rep.Succeeded() {
		return 0, fmt.Errorf("E18: base run failed (%d failed, %d blocked)", rep.Failed, rep.Blocked)
	}

	// Run 2: the storm graph with the fast path on.
	g2, err := dag.Build(all, cat.Resolver())
	if err != nil {
		return 0, err
	}
	deduped := 0
	ex2 := &executor.Executor{
		Driver: &executor.NullDriver{}, Assign: assign, Catalog: cat,
		DedupExecuted: true,
		OnEvent: func(ev executor.Event) {
			if ev.Kind == "dedup" {
				deduped++
			}
		},
	}
	rep2, err := ex2.Run(g2)
	if err != nil {
		return 0, err
	}
	if !rep2.Succeeded() {
		return 0, fmt.Errorf("E18: storm run failed (%d failed, %d blocked)", rep2.Failed, rep2.Blocked)
	}
	if g2.Len() == 0 {
		return 0, nil
	}
	return float64(deduped) / float64(g2.Len()), nil
}

// percentile returns the p-quantile of values in milliseconds-space
// (values is consumed: sorted in place).
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sort.Float64s(values)
	i := int(p * float64(len(values)))
	if i >= len(values) {
		i = len(values) - 1
	}
	return values[i]
}
