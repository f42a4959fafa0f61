package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"chimera/internal/catalog"
	"chimera/internal/obs"
)

// config is one benchmark invocation's settings.
type config struct {
	work string // this process's temporary directory
	bin  string // built vdcd
	seed int64
	// window is the measured part of every closed loop; warm runs
	// before it, unmeasured.
	window, warm time.Duration
	// clients is the closed-loop concurrency: nproc, because callers
	// beyond the core count only queue behind each other on a box
	// where load generator and server share the cores.
	clients int
	// trace adds the traced replay and the per-layer probes after the
	// window; windows themselves always run with tracing off.
	trace  bool
	tracer *obs.Tracer

	// Sizes; -smoke shrinks them.
	analystChains     int // base of analyst_hot, collab_mix
	wideChains        int // base of discover_wide, federation_sync
	tracedOps         int
	setupRepeats      int // set-ups per run of a wide base or a campaign
	setupRepeatsSmall int // set-ups per run of an analyst-sized base
	openLoopFor       time.Duration
	smoke             bool
}

// serverWorkload is one closed-loop workload against a vdcd.
type serverWorkload struct {
	name, why string
	chains    func(*config) int
	// script builds client i's op script.
	script func(m *stormModel, cfg *config, client, prefill int) *script
	// roles is how many kinds of client the script function deals out in
	// turn (0 or 1: all alike); the traced pass replays one of each.
	roles int
	// exact: every reply must equal the model's ID set (read-only
	// workloads); otherwise base ⊆ reply.
	exact bool
	// prefill is the script length generated before the window, per
	// second of warm-up plus window.
	prefillPerSecond int
	// primary is the class op_p50_ms and op_tail_ms report.
	primary opClass
	// tracedOps caps the traced replay below the configured length
	// where single ops are expensive (0: no cap).
	tracedOps int
	// keepAcked retains every acknowledged write for after.
	keepAcked bool
	// after runs workload-specific checks once the window has closed.
	after func(run *serverRun) error
}

// serverRun is the state a server workload shares with its checks and
// with the traced pass.
type serverRun struct {
	cfg     *config
	spec    *serverWorkload
	res     *workloadResult
	model   *stormModel
	dir     string // run directory
	baseDir string // pristine preloaded catalog directory (never served)
	srv     *server
	starts  []float64 // exec-to-healthy seconds of each set-up start
	clients []*client
	loop    loopResult
	// Objects in the preloaded base and bytes of its directory.
	baseObj   int
	baseBytes int64
}

// setUp preloads a catalog directory and starts a vdcd on it,
// setupRepeats times over; setup_s is the median. The last server stays
// up. It also keeps one pristine copy of the preloaded directory for
// the in-process twins.
func (run *serverRun) setUp() error {
	cfg := run.cfg
	// A small base sets up in a fraction of a second: more repeats cost
	// little and steady the median.
	repeats := cfg.setupRepeats
	if run.model.chains <= cfg.analystChains {
		repeats = cfg.setupRepeatsSmall
	}
	var setups []float64
	for i := 0; i < repeats; i++ {
		dir := filepath.Join(run.dir, fmt.Sprintf("catalog-%d", i))
		t0 := time.Now()
		if err := preload(dir, run.model.base.Install); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		if i == 0 {
			// Outside the timer below: the copy serves the benchmark,
			// not the system.
			t1 := time.Now()
			if err := copyDir(dir, run.baseDir); err != nil {
				return err
			}
			t0 = t0.Add(time.Since(t1))
		}
		srv, startDur, err := startServer(cfg.bin, dir)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		run.starts = append(run.starts, startDur.Seconds())
		if i < repeats-1 {
			srv.kill()
			os.RemoveAll(dir)
			continue
		}
		run.srv = srv
	}
	run.res.set("setup_s", medianFloat(setups), len(setups))
	run.baseObj = run.model.objects()
	var err error
	run.baseBytes, err = dirBytes(run.srv.dir)
	return err
}

func runServerWorkload(cfg *config, spec *serverWorkload) (res *workloadResult, err error) {
	res = newWorkloadResult(spec.name, spec.why, cfg)
	dir, err := newRunDir(cfg.work, spec.name)
	if err != nil {
		return nil, err
	}
	run := &serverRun{cfg: cfg, spec: spec, res: res, dir: dir, baseDir: filepath.Join(dir, "base"),
		model: newStormModel(spec.chains(cfg), cfg.seed)}
	defer func() {
		run.srv.kill()
		os.RemoveAll(dir)
	}()
	if err := run.setUp(); err != nil {
		return nil, err
	}

	prefill := spec.prefillPerSecond * int((cfg.warm+cfg.window).Seconds()+1)
	for i := 0; i < cfg.clients; i++ {
		sc := spec.script(run.model, cfg, i, prefill)
		run.clients = append(run.clients, newBenchClient(run.srv.base, sc, run.model, spec.exact))
	}
	run.loop = runClosedLoop(run.srv, run.clients, cfg.warm, cfg.window, spec.keepAcked)
	if err := run.report(); err != nil {
		return nil, err
	}
	if spec.after != nil {
		if err := spec.after(run); err != nil {
			return nil, err
		}
	}
	if cfg.trace {
		if err := run.tracedPass(); err != nil {
			return nil, err
		}
	}
	res.finish()
	return res, nil
}

// report turns the window into end-to-end metrics and the counters
// scraped from the live server into per-layer metrics.
func (run *serverRun) report() error {
	res, loop := run.res, &run.loop
	res.Attempted += loop.ok + loop.failed
	res.Failed += loop.failed
	if loop.firstErr != nil {
		res.fail("first failed op: %v", loop.firstErr)
	}
	// Whole-window numbers: every op that started inside the window
	// counts, a stall included. The judged tail is the p95: ten runs put
	// the p99's quartiles 7-15% apart, the p95's 4-11%. The p99 is still
	// printed, with the sample count: under 1000 samples it has fewer
	// than ten beyond it.
	res.set("ops_per_s", float64(loop.ok)/run.cfg.window.Seconds(), int(loop.ok))
	if r := loop.lat[classRead]; len(r) > 0 {
		res.set("read_p50_ms", r.p50ms(), len(r))
		res.set("read_p95_ms", r.p95ms(), len(r))
		res.set("read_p99_ms", r.p99ms(), len(r))
	}
	if w := loop.lat[classWrite]; len(w) > 0 {
		res.set("write_p50_ms", w.p50ms(), len(w))
		res.set("write_p95_ms", w.p95ms(), len(w))
		res.set("write_p99_ms", w.p99ms(), len(w))
	}
	prim := loop.lat[run.spec.primary]
	res.set("op_p50_ms", prim.p50ms(), len(prim))
	res.set("op_tail_ms", prim.p95ms(), len(prim))

	rss, err := peakRSSMB(run.srv.pid())
	if err != nil {
		return err
	}
	info, err := run.clients[0].vc.Info()
	if err != nil {
		return fmt.Errorf("info after window: %w", err)
	}
	bytes, err := dirBytes(run.srv.dir)
	if err != nil {
		return err
	}
	res.footprint(rss, run.baseObj, statsObjects(info.Stats), run.baseBytes, bytes)

	after, err := run.srv.scrape()
	if err != nil {
		return err
	}
	res.Scrapes["vdcd"] = after.raw
	run.reportCounters(loop.before, after)
	res.set("vds.resp_bytes_per_op", ratio(float64(loop.rxBytes), float64(loop.sent)), int(loop.sent))
	res.set("loadgen.client_cpu_share", ratio(loop.clientCPU, loop.clientCPU+loop.serverCPU))
	return nil
}

func statsObjects(st catalog.Stats) int {
	return st.Datasets + st.Transformations + st.Derivations + st.Invocations + st.Replicas
}

// reportCounters derives the per-layer ratios that come from vdcd's own
// /metrics, as deltas over the measured window.
func (run *serverRun) reportCounters(before, after scrape) {
	res := run.res
	delta := func(name string, labels ...string) float64 {
		return after.sum(name, labels...) - before.sum(name, labels...)
	}
	hits, misses := delta("vdc_query_plan_cache_hits_total"), delta("vdc_query_plan_cache_misses_total")
	res.set("query.cache_hit_ratio", ratio(hits, hits+misses), int(hits+misses))

	requests := delta("vdc_http_requests_total")
	ok2xx := delta("vdc_http_requests_total", `code="2`)
	res.set("vds.non2xx_total", requests-ok2xx, int(requests))
	res.set("vds.handler_live_mean_us",
		1e6*ratio(delta("vdc_http_request_seconds_sum"), delta("vdc_http_request_seconds_count")), int(requests))

	// Mutations only: snapshots are catalog ops too but write no record.
	writes := delta("vdc_catalog_ops_total") - delta("vdc_catalog_ops_total", `op="snapshot"`)
	batches := delta("vdc_wal_batch_records_count")
	res.set("catalog.wal_records_per_fsync", ratio(delta("vdc_wal_batch_records_sum"), batches), int(batches))
	res.set("catalog.wal_bytes_per_op", ratio(delta("vdc_wal_batch_bytes_sum"), writes), int(writes))
	res.set("catalog.fsync_us",
		1e6*ratio(delta("vdc_wal_batch_fsync_seconds_sum"), delta("vdc_wal_batch_fsync_seconds_count")), int(batches))
	res.set("catalog.epoch_swaps_per_write", ratio(delta("vdc_catalog_epoch_swaps_total"), writes), int(writes))
}

// --- The four closed-loop workloads --------------------------------------

func analystHot() *serverWorkload {
	return &serverWorkload{
		name:   wlAnalystHot,
		why:    "read-only, 766 hot predicates under the 1024-entry plan cache: time is HTTP, JSON and the socket, so only vds/transport work may move it",
		chains: func(c *config) int { return c.analystChains },
		script: func(m *stormModel, cfg *config, client, prefill int) *script {
			return analystHotScript(m, cfg.seed, client, prefill)
		},
		exact: true, prefillPerSecond: 6000, primary: classRead,
	}
}

func discoverWide() *serverWorkload {
	return &serverWorkload{
		name:   wlDiscoverWide,
		why:    "read-only, ~30k uniform predicates over 70k objects, far beyond the plan cache: time is query planning, index and view reads and large JSON bodies; also the memory workload",
		chains: func(c *config) int { return c.wideChains },
		script: func(m *stormModel, cfg *config, client, prefill int) *script {
			return discoverWideScript(m, cfg.seed, client, prefill)
		},
		exact: true, prefillPerSecond: 2500, primary: classRead, tracedOps: 1000,
	}
}

func ingestDurable() *serverWorkload {
	return &serverWorkload{
		name:   wlIngestDurable,
		why:    "write-only, fresh chains acknowledged after fsync, then SIGKILL and restart: catalog apply, WAL encode, group commit and fsync; bypasses query cache and codec",
		chains: func(c *config) int { return c.analystChains },
		script: func(m *stormModel, cfg *config, client, prefill int) *script {
			return ingestScript(m, cfg.seed, client, prefill)
		},
		prefillPerSecond: 1500, primary: classWrite,
		keepAcked: true, after: checkDurability,
	}
}

func collabMix() *serverWorkload {
	return &serverWorkload{
		name:   wlCollabMix,
		why:    "analysts (80/10/10 discover/define/derive) beside production writers and delta exports on one server: every commit moves the epoch the plan cache is keyed on; no single-layer gain may regress this",
		chains: func(c *config) int { return c.analystChains },
		script: func(m *stormModel, cfg *config, client, prefill int) *script {
			if client%2 == 0 {
				return collabAnalystScript(m, cfg.seed, client, prefill)
			}
			return collabProducerScript(m, cfg.seed, client, prefill)
		},
		roles: 2, prefillPerSecond: 3000, primary: classRead,
		after: func(run *serverRun) error {
			if !run.cfg.trace {
				return nil
			}
			return run.openLoopProbe()
		},
	}
}
