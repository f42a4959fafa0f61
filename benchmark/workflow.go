package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"chimera/internal/catalog"
	"chimera/internal/dag"
	"chimera/internal/dtype"
	"chimera/internal/estimator"
	"chimera/internal/executor"
	"chimera/internal/grid"
	"chimera/internal/obs"
	"chimera/internal/planner"
	"chimera/internal/replica"
	"chimera/internal/schema"
	"chimera/internal/workload"
)

const workflowRunWhy = "in-process, no vdcd: SDSS+CMS workflows on the simulated 48-site, 10k-host grid, every invocation recorded durably: dag, planner, estimator, executor, grid; nothing in vds, query or federation runs"

// workflowNodes is the size of one workflow request; a run submits
// workflowsPerSecond of them per second of -seconds, one after another.
const (
	workflowNodes      = 1000
	workflowsPerSecond = 2
)

// campaign is one freshly set-up workflow run: grid, durable catalog,
// planner and the workflows to execute.
type campaign struct {
	dir       string
	cat       *catalog.Catalog
	cluster   *grid.Cluster
	est       *estimator.Estimator
	pl        *planner.Planner
	workflows []workload.Workload
	hosts     int
}

// prefixed returns w with every dataset renamed to prefix+name, so that
// several instances of one generated workload can share a catalog.
func prefixed(w workload.Workload, prefix string) workload.Workload {
	var rename func(a schema.Actual) schema.Actual
	rename = func(a schema.Actual) schema.Actual {
		switch a.Kind {
		case schema.ADataset:
			a.Value = prefix + a.Value
		case schema.AList:
			list := make([]schema.Actual, len(a.List))
			for i, e := range a.List {
				list[i] = rename(e)
			}
			a.List = list
		}
		return a
	}
	out := w
	out.Primary = make([]schema.Dataset, len(w.Primary))
	for i, ds := range w.Primary {
		ds.Name = prefix + ds.Name
		out.Primary[i] = ds
	}
	out.Derivations = make([]schema.Derivation, len(w.Derivations))
	for i, dv := range w.Derivations {
		params := make(map[string]schema.Actual, len(dv.Params))
		for k, a := range dv.Params {
			params[k] = rename(a)
		}
		dv.Params = params
		out.Derivations[i] = dv
	}
	out.Targets = make([]string, len(w.Targets))
	for i, t := range w.Targets {
		out.Targets[i] = prefix + t
	}
	return out
}

// setUpCampaign builds everything a run needs, from the seed: the
// hierarchical testbed, a durable catalog holding every workflow's
// objects, a seeded estimator and the planner with the replication half
// of E17's economy policy.
func setUpCampaign(cfg *config, dir string) (*campaign, error) {
	const hosts = 10000
	g, err := grid.HierarchicalTestbed(grid.HierarchyParams{Hosts: hosts, SpeedSpread: 0.1, Seed: cfg.seed})
	if err != nil {
		return nil, err
	}
	// Storage stays unbounded, and the policy's eviction half
	// (EconomyEviction) off: with bounded site caches it evicts the only
	// replica of an intermediate dataset before its consumer is placed,
	// and the run fails ("no replica reachable").
	archive := g.Sites()[:1]

	c := &campaign{dir: dir, hosts: hosts, est: estimator.New(300)}
	// Each workflow: four fifths SDSS cluster search, one fifth CMS event
	// simulation chains.
	nodes := workflowNodes
	if cfg.smoke {
		nodes = 100
	}
	count := max(workflowsPerSecond*int(cfg.window.Seconds()), 2)
	for i := 0; i < count; i++ {
		prefix := fmt.Sprintf("w%03d.", i)
		sdss := prefixed(workload.SDSS(workload.SDSSParams{
			Fields: max(nodes*4/5/3, 10), StripeSize: 100, Seed: cfg.seed + int64(i)}), prefix)
		cms := prefixed(workload.CMS(workload.CMSParams{Runs: max(nodes/5/4, 2)}), prefix)
		sdss.Derivations = append(sdss.Derivations, cms.Derivations...)
		sdss.Targets = append(sdss.Targets, cms.Targets...)
		if i == 0 {
			sdss.SeedEstimator(c.est, 3)
			cms.SeedEstimator(c.est, 3)
			sdss.Transformations = append(sdss.Transformations, cms.Transformations...)
		} else {
			sdss.Transformations = nil
		}
		c.workflows = append(c.workflows, sdss)
	}
	// The objects are loaded the way a server's base is, without an
	// fsync per object; the run itself records on a Sync catalog.
	err = preload(dir, func(cat *catalog.Catalog) error {
		for _, w := range c.workflows {
			if err := w.Install(cat); err != nil {
				return err
			}
			if err := w.PlacePrimary(cat, archive); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if c.cat, err = catalog.Open(dir, dtype.StandardRegistry(), catalogOptions()); err != nil {
		return nil, err
	}

	c.cluster = grid.NewCluster(g, grid.NewSim(cfg.seed))
	c.pl = planner.New(c.cat, c.est, c.cluster)
	c.pl.LinkClassWeight = map[string]float64{grid.ClassTransatlantic: 4}
	pop := replica.NewPopularity(1500)
	c.pl.Pop = pop
	c.pl.SimNow = c.cluster.Sim.Now
	c.pl.Replication = planner.PopularityDriven{Pop: pop, Now: c.cluster.Sim.Now, Threshold: 2}
	return c, nil
}

// timedDriver separates the simulator's own time from the executor
// callbacks it runs: completions re-enter the executor (record,
// dispatch, Assign, Start) from inside Drain.
type timedDriver struct {
	executor.Driver
	start, callbacks, drain time.Duration
}

func (d *timedDriver) Start(n *dag.Node, p executor.Placement, attempt int, done func(executor.Result)) error {
	t0 := time.Now()
	err := d.Driver.Start(n, p, attempt, func(r executor.Result) {
		t := time.Now()
		done(r)
		d.callbacks += time.Since(t)
	})
	d.start += time.Since(t0)
	return err
}

func (d *timedDriver) Drain() {
	t0 := time.Now()
	d.Driver.Drain()
	d.drain += time.Since(t0)
}

// pure is the time spent in the driver itself: Drain minus the
// executor callbacks it ran, plus the Start calls made from them.
func (d *timedDriver) pure() time.Duration { return d.drain - d.callbacks + d.start }

// campaignRun is what executing every workflow once measured.
type campaignRun struct {
	nodes      int
	wall       time.Duration
	requests   samples // one per workflow: build the DAG, run it
	build      samples
	makespan   float64
	wanGB      float64
	assign     samples
	driver     time.Duration
	record     time.Duration
	events     uint64
	replicas   uint64
	incomplete int
	deduped    int
}

func counter(stats map[string]any, key string) uint64 {
	v, _ := stats[key].(uint64)
	return v
}

func sumOf(s samples) time.Duration {
	var total time.Duration
	for _, d := range s {
		total += d
	}
	return total
}

// execute submits the workflows one after another, as requests arrive
// at a workflow manager: build the DAG, run it to completion on the
// grid, next. With a tracer it also times Assign, the driver and the
// catalog recording, which is the traced run; the untraced run carries
// no wrappers. With dedup it asks for work already on record.
func (c *campaign) execute(tracer *obs.Tracer, dedup bool) (campaignRun, error) {
	var run campaignRun
	ctx := context.Background()
	var driver *timedDriver
	var inner executor.Driver = executor.NewSimDriver(c.cluster)
	assign := c.pl.Assign
	if tracer != nil {
		ctx = obs.WithTracer(ctx, tracer)
		driver = &timedDriver{Driver: inner}
		inner = driver
		assign = func(n *dag.Node) (executor.Placement, error) {
			t := time.Now()
			p, err := c.pl.Assign(n)
			run.assign = append(run.assign, time.Since(t))
			return p, err
		}
	}
	gridBefore, planBefore := grid.DebugStats(), planner.DebugStats()
	for _, w := range c.workflows {
		t0 := time.Now()
		graph, err := dag.Build(w.Derivations, c.cat.Resolver())
		if err != nil {
			return run, err
		}
		run.build = append(run.build, time.Since(t0))
		ex := &executor.Executor{
			Driver: inner, Assign: assign, Catalog: c.cat, DedupExecuted: dedup,
			OnEvent: func(ev executor.Event) {
				c.pl.OnEvent(ev)
				if ev.Kind == "dedup" {
					run.deduped++
				}
			},
		}
		rep, err := ex.RunContext(ctx, graph)
		if err != nil {
			return run, err
		}
		d := time.Since(t0)
		run.wall += d
		run.requests = append(run.requests, d)
		run.nodes += graph.Len()
		run.incomplete += rep.Failed + rep.Blocked
		run.makespan = rep.Makespan
	}
	gridAfter, planAfter := grid.DebugStats(), planner.DebugStats()
	run.events = counter(gridAfter, "events_total") - counter(gridBefore, "events_total")
	run.replicas = counter(planAfter, "replicas_created_total") - counter(planBefore, "replicas_created_total")
	run.wanGB = float64(c.cluster.TransferredBytes) / 1e9
	if driver != nil {
		run.driver = driver.pure()
		for _, sp := range tracer.Spans() {
			if sp.Name == "executor.record" {
				run.record += sp.End - sp.Start
			}
		}
	}
	return run, nil
}

func runWorkflow(cfg *config) (*workloadResult, error) {
	res := newWorkloadResult(wlWorkflowRun, workflowRunWhy, cfg)
	res.Clients = 1
	dir, err := newRunDir(cfg.work, wlWorkflowRun)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// This process hosts the catalog, so its own peak RSS is the memory
	// metric: start the high-water mark afresh, or a full run would
	// report what the earlier workloads' twins needed.
	debug.FreeOSMemory()
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // Linux: 5 resets VmHWM; elsewhere the peak stays cumulative

	var setups []float64
	var c *campaign
	for i := 0; i < cfg.setupRepeats; i++ {
		if c != nil {
			c.cat.Close()
		}
		t0 := time.Now()
		c, err = setUpCampaign(cfg, filepath.Join(dir, fmt.Sprintf("catalog-%d", i)))
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() { c.cat.Close() }()
	res.set("setup_s", medianFloat(setups), len(setups))

	objects0 := statsObjects(c.cat.Stats())
	bytes0, err := dirBytes(c.dir)
	if err != nil {
		return nil, err
	}
	run, err := c.execute(nil, false)
	if err != nil {
		return nil, err
	}
	res.Attempted += int64(run.nodes)
	res.Failed += int64(run.incomplete)
	rate := float64(run.nodes) / run.wall.Seconds()
	res.set("ops_per_s", rate, run.nodes)
	res.set("derivations_per_s", rate, run.nodes)
	// One op here is one workflow request, from DAG build to the last
	// invocation recorded durable. Too few fit a run for a p99: the tail
	// is the p90.
	res.set("op_p50_ms", run.requests.p50ms(), len(run.requests))
	res.set("op_tail_ms", run.requests.quantile(0.90), len(run.requests))
	res.set("sim_makespan_s", run.makespan)
	res.set("sim_wan_gb", run.wanGB)
	res.set("grid.events_per_s", float64(run.events)/run.wall.Seconds(), int(run.events))
	res.set("grid.replicas_created", float64(run.replicas))
	res.set("dag.build_ms", run.build.p50ms(), len(run.build))

	st := c.cat.Stats()
	if st.Invocations != run.nodes {
		res.Failed++
		res.fail("catalog records %d invocations after %d nodes ran", st.Invocations, run.nodes)
	}
	for _, w := range c.workflows {
		for _, target := range w.Targets {
			if !c.cat.Materialized(target) {
				res.Failed++
				res.fail("target %s has no replica after the run", target)
			}
		}
	}
	bytes1, err := dirBytes(c.dir)
	if err != nil {
		return nil, err
	}

	// The same workflows again: every derivation now has an invocation
	// on record, so with DedupExecuted nothing may be dispatched.
	again, err := c.execute(nil, true)
	if err != nil {
		return nil, err
	}
	res.Attempted += int64(again.nodes)
	res.Failed += int64(again.incomplete + again.nodes - again.deduped)
	if again.deduped != again.nodes {
		res.fail("second pass deduplicated %d of %d nodes", again.deduped, again.nodes)
	}
	res.set("executor.dedup_ratio", ratio(float64(again.deduped), float64(again.nodes)), again.nodes)

	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	res.footprint(rss, objects0, statsObjects(st), bytes0, bytes1)

	if cfg.trace {
		if err := tracedCampaign(cfg, res, filepath.Join(dir, "catalog-traced"), run); err != nil {
			return nil, err
		}
	}
	res.finish()
	return res, nil
}

// tracedCampaign sets the campaign up once more and runs it with the
// timing wrappers and the tracer on. The simulation is deterministic in
// the seed, so its makespan and WAN volume must equal the untraced
// run's exactly; the wall-time difference is the tracing overhead.
func tracedCampaign(cfg *config, res *workloadResult, dir string, plain campaignRun) error {
	c, err := setUpCampaign(cfg, dir)
	if err != nil {
		return err
	}
	defer c.cat.Close()

	graph, err := dag.Build(c.workflows[0].Derivations, c.cat.Resolver())
	if err != nil {
		return err
	}
	t0 := time.Now()
	est := c.est.EstimateGraph(graph, c.hosts, nil)
	res.set("estimator.estimate_ms", float64(time.Since(t0))/float64(time.Millisecond), graph.Len())
	if est.TotalWork <= 0 {
		res.fail("estimator predicts no work for a %d-node graph", graph.Len())
	}
	var plans samples
	site := c.cluster.Grid.Sites()[0]
	for _, w := range c.workflows {
		target := w.Targets[0]
		t := time.Now()
		plan, err := c.pl.PlanRequest(target, site)
		plans = append(plans, time.Since(t))
		res.Attempted++
		if err != nil || plan.Decision != planner.Derive {
			res.Failed++
			res.fail("plan request for %s: decision %v, err %v; want derive", target, plan.Decision, err)
		}
	}
	res.set("planner.plan_request_us", plans.p50us(), len(plans))

	tracer := obs.NewTracer()
	run, err := c.execute(tracer, false)
	if err != nil {
		return err
	}
	for _, sp := range tracer.Spans() {
		cfg.tracer.Record(sp)
	}
	res.Attempted += int64(run.nodes)
	res.Failed += int64(run.incomplete)
	if run.makespan != plain.makespan || run.wanGB != plain.wanGB {
		res.Failed++
		res.fail("two runs of seed %d disagree: makespan %v vs %v, WAN %v vs %v GB",
			cfg.seed, run.makespan, plain.makespan, run.wanGB, plain.wanGB)
	}
	n := float64(run.nodes)
	res.set("planner.assign_us", run.assign.p50us(), len(run.assign))
	overhead := run.wall - sumOf(run.build) - run.driver - sumOf(run.assign) - run.record
	res.set("executor.overhead_us_per_node", float64(overhead)/float64(time.Microsecond)/n, run.nodes)
	res.set("executor.record_us_per_node", float64(run.record)/float64(time.Microsecond)/n, run.nodes)
	res.set("trace.overhead_ratio", run.wall.Seconds()/plain.wall.Seconds()-1)
	return nil
}
