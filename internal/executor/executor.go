// Package executor implements the derivation facet (§5.4): a
// DAGman-style workflow execution manager that dispatches the nodes of
// a workflow graph as their predecessor dependencies complete, retries
// failures, records invocation objects (and output replicas) in the
// virtual data catalog, and reports completion statistics.
//
// Execution is abstracted behind a Driver: SimDriver runs placements on
// the simulated grid in virtual time; LocalDriver runs registered Go
// functions on the local machine in real time; the tests' NullDriver
// completes jobs instantly for scheduler benchmarks. The executor
// itself is identical over all of them.
//
// Scheduling is incremental: the executor maintains per-node indegree
// counters seeded from each node's predecessors, so a completion
// touches only its successors instead of rescanning the whole graph
// (a dag.Ready rescan model is the oracle the frontier is tested
// against).
//
// Catalog recording is pipelined: a completion applies its invocation
// and replica records to the catalog before its successors dispatch,
// but the wait for WAL durability is handed to an ordered recording
// pipeline and resolved off the scheduler lock. The pipeline preserves
// completion order — durability errors surface (via the run's first
// error) in the order the attempts finished, and a later completion's
// records are never confirmed durable before an earlier one's — while
// keeping many waits in flight so the catalog's group committer can
// batch concurrent completions into shared fsyncs. Waits a placement
// brings with it (Placement.Waits, for records the planner wrote while
// deciding) enter the same pipeline when the node dispatches.
package executor

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"chimera/internal/catalog"
	"chimera/internal/dag"
	"chimera/internal/obs"
	"chimera/internal/schema"
)

// Executor metrics: lifecycle event counters and an in-flight gauge.
// Series are resolved at init; the dispatch/complete paths (which run
// under e.mu on the scheduling hot path) pay only atomic adds.
var (
	metricEvents = obs.Default.CounterVec("vdc_executor_events_total",
		"Executor lifecycle events by kind.", "kind")
	evDispatch   = metricEvents.With("dispatch")
	evRedispatch = metricEvents.With("redispatch")
	evDone       = metricEvents.With("done")
	evRetry      = metricEvents.With("retry")
	evFail       = metricEvents.With("fail")
	evDedup      = metricEvents.With("dedup")

	gaugeInflight = obs.Default.Gauge("vdc_executor_inflight",
		"Nodes dispatched but not yet terminally done or failed.")

	// metricDedupHits counts nodes satisfied from the catalog instead of
	// dispatched: the derivation already had a recorded
	// invocation — the paper's "has this computation already been
	// performed?" answered before the executor pays for a placement.
	metricDedupHits = obs.Default.Counter("vdc_executor_dedup_hits_total",
		"Nodes skipped because the catalog already records an invocation of the derivation (DedupExecuted).")
)

// StageIn describes one input transfer a placement requires.
type StageIn struct {
	// Dataset being staged.
	Dataset string
	// FromSite holding the chosen replica.
	FromSite string
	// Bytes to move.
	Bytes int64
}

// Placement is the planner's decision for one node: where it runs, how
// much work it is, and what data must move first.
type Placement struct {
	// Site and Host name the execution location.
	Site string
	Host string
	// Work is the job cost in reference-CPU seconds.
	Work float64
	// NoiseAmp adds runtime jitter in simulation (0 = deterministic).
	NoiseAmp float64
	// Transfers stage inputs to Site before the job starts.
	Transfers []StageIn
	// OutputBytes predicts the size of each produced dataset, used for
	// replica registration and accounting.
	OutputBytes map[string]int64
	// Waits block until catalog records the decision itself wrote (the
	// planner's dynamic replicas) are durable. The records are already
	// applied; the executor resolves the waits with its completions'
	// own, so a run reports success only once they are on disk.
	Waits []func() error
}

// Result reports one attempt at one node.
type Result struct {
	Node     string
	Attempt  int
	ExitCode int
	Site     string
	Host     string
	// Start and End are in driver time (seconds).
	Start, End float64
	BytesIn    int64
	BytesOut   int64
}

// Driver runs placed jobs and delivers completions.
type Driver interface {
	// Start launches a node; done is called exactly once with the
	// attempt's result. Start must not block on job completion.
	Start(n *dag.Node, p Placement, attempt int, done func(Result)) error
	// Drain runs until every started job has delivered its result.
	Drain()
	// Now returns the driver's current time in seconds.
	Now() float64
}

// Event describes executor progress for observers.
type Event struct {
	// Kind is "dispatch" (first attempt), "redispatch" (a retry
	// attempt entering the driver), "done", "retry" (decision to retry
	// after a failure), "fail", or "dedup" (node satisfied from the
	// catalog's recorded invocations without dispatching).
	Kind string
	Node string
	// Attempt is the zero-based attempt number the event refers to;
	// for "retry" it is the attempt that just failed.
	Attempt int
	Result  Result
}

// Executor drives a workflow graph to completion.
type Executor struct {
	// Driver executes placed nodes. Required.
	Driver Driver
	// Assign chooses a placement when a node becomes ready. Required.
	// It is called in dispatch order and may observe current load.
	Assign func(*dag.Node) (Placement, error)
	// MaxRetries bounds re-execution after failures (0 = no retries).
	MaxRetries int
	// Catalog, when set, receives invocation records for every attempt
	// and replica records for the outputs of successful nodes.
	Catalog *catalog.Catalog
	// Epoch maps driver seconds to wall-clock timestamps in invocation
	// records; zero means Unix epoch.
	Epoch time.Time
	// OnEvent observes progress (optional).
	OnEvent func(Event)
	// Trace, when set, records one span per attempt (plus a workflow
	// root span) on the driver's timeline for Chrome-trace export.
	Trace *obs.Tracer
	// DedupExecuted, with Catalog set, answers "has this derivation
	// already run?" from the catalog (Catalog.HasInvocations) before
	// paying for a placement: a node whose derivation already has a
	// recorded invocation completes instantly (no Assign, no driver
	// dispatch, no new invocation record) and unlocks its successors.
	// The probe sees every invocation the catalog has applied; a miss
	// costs a redundant re-execution, exactly what an executor without
	// the flag always does, never a false skip of never-run work. Off by
	// default: runs
	// that *want* re-execution (fresh epochs, benchmarking) keep the old
	// behaviour.
	DedupExecuted bool

	traceRoot int64
	// runCtx is the context RunContext was called with, held for the
	// duration of the run so the record path can attach wall-clock spans
	// to the caller's trace (distinct from the driver-time Trace above).
	runCtx     context.Context
	mu         sync.Mutex
	done       map[string]bool
	attempts   map[string]int
	failed     map[string]bool
	dispatched map[string]bool
	// indeg counts each node's not-yet-done predecessors; a completion
	// decrements its successors and dispatches those that reach zero.
	indeg    map[string]int
	rec      *recorder
	results  []Result
	firstErr error
	graph    *dag.Graph
}

// Report summarizes a workflow run.
type Report struct {
	// Completed, Failed and Blocked count terminal node states; a node
	// is blocked when an ancestor failed permanently.
	Completed, Failed, Blocked int
	// Makespan is the driver time at completion.
	Makespan float64
	// Retries counts re-executions.
	Retries int
	// BytesStagedIn totals input transfer volume.
	BytesStagedIn int64
	// Results holds every attempt in completion order.
	Results []Result
}

// Succeeded reports whether every node completed.
func (r Report) Succeeded() bool { return r.Failed == 0 && r.Blocked == 0 }

// Run executes the graph to quiescence and returns the report. Run is
// not safe for concurrent invocation on one Executor.
func (e *Executor) Run(g *dag.Graph) (Report, error) {
	return e.RunContext(context.Background(), g)
}

// RunContext is Run under a caller context: when the context carries a
// tracer, the run records a wall-clock "executor.run" span (and one
// "executor.record" span per completion's catalog apply) into the
// caller's trace. This is orthogonal to the driver-time Trace field,
// which records attempt spans on the driver's virtual timeline.
func (e *Executor) RunContext(ctx context.Context, g *dag.Graph) (rep Report, err error) {
	if e.Driver == nil || e.Assign == nil {
		return Report{}, errors.New("executor: Driver and Assign are required")
	}
	ctx, span := obs.StartSpan(ctx, "executor.run")
	span.SetAttr("nodes", fmt.Sprint(g.Len()))
	defer func() {
		span.SetAttr("retries", fmt.Sprint(rep.Retries))
		span.SetError(err)
		span.End()
	}()
	e.runCtx = ctx
	if e.Trace != nil {
		e.traceRoot = e.Trace.NextID()
	}
	e.mu.Lock()
	e.graph = g
	e.done = make(map[string]bool, g.Len())
	e.attempts = make(map[string]int)
	e.failed = make(map[string]bool)
	e.dispatched = make(map[string]bool)
	e.indeg = make(map[string]int, g.Len())
	e.results = nil
	e.firstErr = nil
	e.rec = nil
	if e.Catalog != nil {
		e.rec = newRecorder(e)
	}
	e.mu.Unlock()

	e.mu.Lock()
	e.dispatchInitialLocked()
	e.mu.Unlock()
	e.Driver.Drain()
	if e.rec != nil {
		// Every completion has applied its records and enqueued its
		// durability waits by now; block until they resolve so the
		// report never claims success for records that are not durable.
		e.rec.drain()
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.firstErr != nil {
		return Report{}, e.firstErr
	}
	rep = Report{Makespan: e.Driver.Now(), Results: e.results}
	for _, n := range g.Nodes() {
		switch {
		case e.done[n.ID]:
			rep.Completed++
		case e.failed[n.ID]:
			rep.Failed++
		default:
			rep.Blocked++
		}
	}
	for _, r := range e.results {
		rep.BytesStagedIn += r.BytesIn
		if r.Attempt > 0 {
			rep.Retries++
		}
	}
	if e.Trace != nil {
		e.Trace.Record(obs.SpanRecord{
			ID: e.traceRoot, Name: "workflow",
			Start: 0, End: driverDur(rep.Makespan),
			Attrs: map[string]string{
				"nodes":   fmt.Sprint(g.Len()),
				"retries": fmt.Sprint(rep.Retries),
			},
		})
	}
	return rep, nil
}

// driverDur converts driver seconds to a span offset.
func driverDur(sec float64) time.Duration {
	return time.Duration(sec * float64(time.Second))
}

// dispatchInitialLocked seeds the scheduler and starts the initial
// frontier. Callers hold e.mu.
func (e *Executor) dispatchInitialLocked() {
	nodes := e.graph.Nodes()
	for _, n := range nodes {
		e.indeg[n.ID] = n.NumPreds()
	}
	for _, n := range nodes {
		if e.firstErr != nil {
			return
		}
		// The dispatched guard matters once dedup exists: a dedup'd root
		// synchronously unlocks successors, which can dispatch a node this
		// loop has not reached yet.
		if e.indeg[n.ID] == 0 && !e.dispatched[n.ID] {
			e.startLocked(n, 0)
		}
	}
}

// unlockSuccsLocked advances the ready frontier after node n completed:
// each successor's indegree drops by one, and those reaching zero
// dispatch — O(successors) per completion. Callers hold e.mu and have
// already marked n done.
func (e *Executor) unlockSuccsLocked(n *dag.Node) {
	for _, s := range n.Succs() {
		e.indeg[s.ID]--
		if e.indeg[s.ID] > 0 || e.dispatched[s.ID] || e.failed[s.ID] {
			continue
		}
		if e.firstErr != nil {
			return
		}
		e.startLocked(s, 0)
	}
}

// startLocked dispatches one attempt. Callers hold e.mu.
func (e *Executor) startLocked(n *dag.Node, attempt int) {
	if attempt == 0 && e.DedupExecuted && e.Catalog != nil && e.Catalog.HasInvocations(n.ID) {
		// Duplicate-derivation fast path: the catalog already records an
		// invocation of this derivation, so the computation has
		// been performed — complete the node without a placement.
		e.dispatched[n.ID] = true
		e.done[n.ID] = true
		evDedup.Inc()
		metricDedupHits.Inc()
		e.emit(Event{Kind: "dedup", Node: n.ID, Attempt: 0})
		e.unlockSuccsLocked(n)
		return
	}
	p, err := e.Assign(n)
	if err != nil {
		e.firstErr = fmt.Errorf("executor: assign %s: %w", n.ID, err)
		return
	}
	// The decision's own catalog writes join the recording pipeline
	// here, before anything of the attempt can complete behind them.
	e.awaitLocked(p.Waits)
	e.dispatched[n.ID] = true
	if attempt == 0 {
		evDispatch.Inc()
		gaugeInflight.Inc()
		e.emit(Event{Kind: "dispatch", Node: n.ID, Attempt: attempt})
	} else {
		evRedispatch.Inc()
		e.emit(Event{Kind: "redispatch", Node: n.ID, Attempt: attempt})
	}
	err = e.Driver.Start(n, p, attempt, func(res Result) {
		e.complete(n, p, res)
	})
	if err != nil {
		e.firstErr = fmt.Errorf("executor: start %s: %w", n.ID, err)
	}
}

// complete handles one attempt result; it may run on any goroutine.
func (e *Executor) complete(n *dag.Node, p Placement, res Result) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.results = append(e.results, res)
	e.awaitLocked(e.record(n, p, res))
	e.traceAttempt(n, res)
	if res.ExitCode == 0 {
		e.done[n.ID] = true
		evDone.Inc()
		gaugeInflight.Dec()
		e.emit(Event{Kind: "done", Node: n.ID, Attempt: res.Attempt, Result: res})
		e.unlockSuccsLocked(n)
		return
	}
	if res.Attempt < e.MaxRetries {
		evRetry.Inc()
		e.emit(Event{Kind: "retry", Node: n.ID, Attempt: res.Attempt, Result: res})
		e.startLocked(n, res.Attempt+1)
		return
	}
	e.failed[n.ID] = true
	evFail.Inc()
	gaugeInflight.Dec()
	e.emit(Event{Kind: "fail", Node: n.ID, Attempt: res.Attempt, Result: res})
}

// awaitLocked hands durability waits to the recording pipeline, or
// without one (no Catalog to record in) blocks for them here, under
// the scheduler lock. Callers hold e.mu.
func (e *Executor) awaitLocked(waits []func() error) {
	if len(waits) == 0 {
		return
	}
	if e.rec != nil {
		e.rec.enqueue(waits)
		return
	}
	for _, w := range waits {
		if err := w(); err != nil && e.firstErr == nil {
			e.firstErr = err
		}
	}
}

// recordErr surfaces an asynchronous recording failure through the
// run's first-error path.
func (e *Executor) recordErr(err error) {
	e.mu.Lock()
	if e.firstErr == nil {
		e.firstErr = err
	}
	e.mu.Unlock()
}

// traceAttempt records one attempt span on the driver timeline,
// parented under the workflow root. Callers hold e.mu.
func (e *Executor) traceAttempt(n *dag.Node, res Result) {
	if e.Trace == nil {
		return
	}
	attrs := map[string]string{
		"site":    res.Site,
		"host":    res.Host,
		"attempt": fmt.Sprint(res.Attempt),
		"exit":    fmt.Sprint(res.ExitCode),
		"tr":      n.Derivation.TR,
	}
	e.Trace.Record(obs.SpanRecord{
		ID: e.Trace.NextID(), Parent: e.traceRoot, Name: n.ID,
		Start: driverDur(res.Start), End: driverDur(res.End),
		Attrs: attrs,
	})
}

// record applies the attempt's invocation (and, on success, the output
// replicas) to the catalog if one is attached, and returns the
// durability waits for the enqueued WAL records. The apply happens
// here, synchronously, so successors dispatched after this completion
// always observe its replicas; the waits resolve on the recording
// pipeline. Callers hold e.mu.
func (e *Executor) record(n *dag.Node, p Placement, res Result) []func() error {
	if e.Catalog == nil {
		return nil
	}
	rctx := e.runCtx
	if rctx == nil {
		rctx = context.Background()
	}
	_, rspan := obs.StartSpan(rctx, "executor.record")
	rspan.SetAttr("node", n.ID)
	defer rspan.End()
	epoch := e.Epoch
	if epoch.IsZero() {
		epoch = time.Unix(0, 0).UTC()
	}
	// Sequence by prior recorded executions so re-running a derivation
	// (retries, epoch recomputes) never collides.
	seq := e.Catalog.InvocationCount(n.ID)
	iv := schema.Invocation{
		ID:         fmt.Sprintf("iv-%s-%d", n.ID, seq),
		Derivation: n.ID,
		Site:       res.Site,
		Host:       res.Host,
		Start:      epoch.Add(time.Duration(res.Start * float64(time.Second))),
		End:        epoch.Add(time.Duration(res.End * float64(time.Second))),
		ExitCode:   res.ExitCode,
		BytesIn:    res.BytesIn,
		BytesOut:   res.BytesOut,
	}
	var waits []func() error
	w, err := e.Catalog.AddInvocationAsync(iv)
	if err != nil {
		if e.firstErr == nil {
			e.firstErr = err
		}
		return waits
	}
	if w != nil {
		waits = append(waits, w)
	}
	if res.ExitCode != 0 {
		return waits
	}
	for _, out := range n.Outputs {
		epoch := 0
		if rec, err := e.Catalog.Dataset(out); err == nil {
			epoch = rec.Epoch
		}
		rep := schema.Replica{
			// Keyed by (dataset, site, epoch): re-deriving the same
			// data where a replica already exists is the recompute
			// case, tolerated as ErrExists below.
			ID:         fmt.Sprintf("rep-%s-%s-e%d", out, res.Site, epoch),
			Dataset:    out,
			Site:       res.Site,
			PFN:        fmt.Sprintf("/store/%s/%s", res.Site, out),
			Size:       p.OutputBytes[out],
			Epoch:      epoch,
			ProducedBy: iv.ID,
		}
		w, err := e.Catalog.AddReplicaAsync(rep)
		if err != nil {
			if errors.Is(err, catalog.ErrExists) {
				continue
			}
			if e.firstErr == nil {
				e.firstErr = err
			}
			return waits
		}
		if w != nil {
			waits = append(waits, w)
		}
	}
	return waits
}

func (e *Executor) emit(ev Event) {
	if e.OnEvent != nil {
		e.OnEvent(ev)
	}
}
