package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"chimera/internal/catalog"
	"chimera/internal/codec"
	"chimera/internal/dtype"
	"chimera/internal/obs"
	"chimera/internal/query"
	"chimera/internal/schema"
	"chimera/internal/vds"
)

// The traced pass runs after a server workload's window, which itself
// ran with tracing off. It replays part of client 0's script (and, where
// odd clients play another role, of client 1's) single-threaded under
// the benchmark's own obs.Tracer: one root span per op
// around the real round trip to vdcd, and under it the same op executed
// on in-process twins of the catalog, layer by layer, by calling the
// layers' exported functions:
//
//	op.<kind>                      real round trip over the socket
//	└─ vds.handler                 vds.Server.ServeHTTP on twin "handler"
//	   ├─ query.parse              query.Parse
//	   ├─ catalog.view             Catalog.View + Close
//	   ├─ query.run                query.Run on twin "steps"
//	   ├─ catalog.get / .lineage / .changes_since
//	   ├─ codec.json_encode        encoding/json of the reply (codec.binary_encode for a delta)
//	   └─ catalog.mutate           Add* on twin "steps" (durable)
//	      └─ catalog.apply         Add* on twin "memory" (no WAL)
//
// Child spans start after their parent has ended: the link is the
// parent ID, not containment. A layer's self time is its span minus its
// children. Spans inside vdcd itself are a later issue.

// tracedWarm is how many of a replayed client's latest ops are run
// untimed on the twins first, so that their plan caches resemble the
// server's.
const tracedWarm = 1000

type tracePass struct {
	run    *serverRun
	tracer *obs.Tracer
	client *client // the client being replayed

	handler *catalog.Catalog // durable twin served through vds.Server
	steps   *catalog.Catalog // durable twin driven layer by layer
	memory  *catalog.Catalog // memory-only twin, only when the script writes
	srv     *vds.Server
	stepDir string

	handlerSeq, stepsSeq uint64 // delta-export cursors on the twins

	infoRTT, infoHandler samples
	root, handlerDur     [numClasses]samples
	self                 samples
	parse, hit, miss     samples
	mutate, apply        samples
	rows, discovers      int
}

func (run *serverRun) openTwin(name string) (*catalog.Catalog, string, error) {
	dir := filepath.Join(run.dir, "twin-"+name)
	if err := copyDir(run.baseDir, dir); err != nil {
		return nil, "", err
	}
	cat, err := catalog.Open(dir, dtype.StandardRegistry(), catalogOptions())
	return cat, dir, err
}

// tracedPass replays, decomposes and probes; see the comment above.
func (run *serverRun) tracedPass() error {
	tp := &tracePass{run: run, tracer: run.cfg.tracer}
	var err error
	if tp.handler, _, err = run.openTwin("handler"); err != nil {
		return err
	}
	defer tp.handler.Close()
	if tp.steps, tp.stepDir, err = run.openTwin("steps"); err != nil {
		return err
	}
	defer func() {
		if tp.steps != nil {
			tp.steps.Close()
		}
	}()
	if !run.spec.exact {
		tp.memory = catalog.NewSharded(dtype.StandardRegistry(), catalogShards)
		if err := run.model.base.Install(tp.memory); err != nil {
			return err
		}
	}
	tp.srv = vds.NewServer("bench.twin", tp.handler)
	tp.handlerSeq, tp.stepsSeq = tp.handler.Seq(), tp.steps.Seq()

	// Two twins share this process's plan cache, which vdcd has to
	// itself: double it so each twin sees the capacity the server has.
	query.SetPlanCacheCapacity(2 * query.DefaultPlanCacheCapacity)
	defer query.SetPlanCacheCapacity(query.DefaultPlanCacheCapacity)

	tracedOps := run.cfg.tracedOps
	if run.spec.tracedOps > 0 {
		tracedOps = min(tracedOps, run.spec.tracedOps)
	}
	// One client of each role, the replay shared equally between them.
	replayed := run.clients[:min(max(run.spec.roles, 1), len(run.clients))]
	for _, c := range replayed {
		if err := tp.replay(c, tracedOps/len(replayed)); err != nil {
			return err
		}
	}
	tp.report()
	return tp.probes()
}

// replay continues c's script for n ops where the window stopped.
func (tp *tracePass) replay(c *client, n int) error {
	tp.client = c
	// A killed-and-restarted server (ingest_durable) left the window's
	// connection dead; the replay dials afresh either way.
	c.vc = newClient(tp.run.srv.base, &c.rx)
	c.vc.Binary = true
	for i := max(c.pos-tracedWarm, 0); i < c.pos; i++ {
		tp.warm(c.script.at(i))
	}
	if !tp.run.spec.exact {
		// A writer's script is chain after chain, and the window stopped
		// somewhere inside one: skip to the next chain's first op, so
		// that the twins see every object a replayed op refers to.
		for c.script.at(c.pos).kind != kPutDS {
			c.pos++
		}
	}
	for i := 0; i < n; i++ {
		o := c.script.at(c.pos)
		c.pos++
		if rctx := tp.roundTrip(o); rctx != nil {
			if err := tp.decompose(rctx, o); err != nil {
				return err
			}
		}
		if i%infoEvery == 0 {
			if err := tp.infoRoundTrip(); err != nil {
				return err
			}
		}
	}
	return nil
}

// infoEvery: one replayed op in four is followed by a GET /v1/info.
const infoEvery = 4

// infoRoundTrip times GET /v1/info over the socket and through the
// handler twin. The difference is vds.transport_us: what the socket,
// net/http on both ends and vds.Client cost an op that does almost
// nothing. It is sampled between the replay's ops, not in a loop of its
// own: a tight loop of one tiny request keeps server and client
// goroutines from ever parking and reads 40 µs lower than the same
// request does amid mixed traffic.
func (tp *tracePass) infoRoundTrip() error {
	t0 := time.Now()
	if _, err := tp.client.vc.Info(); err != nil {
		return fmt.Errorf("transport probe: %w", err)
	}
	tp.infoRTT = append(tp.infoRTT, time.Since(t0))
	req := httptest.NewRequest(http.MethodGet, "/v1/info", nil)
	rec := httptest.NewRecorder()
	t0 = time.Now()
	tp.srv.ServeHTTP(rec, req)
	tp.infoHandler = append(tp.infoHandler, time.Since(t0))
	return nil
}

// request builds the HTTP request vds.Client would send for o, for the
// handler twin.
func (tp *tracePass) request(o *op) *http.Request {
	get := func(path string) *http.Request { return httptest.NewRequest(http.MethodGet, path, nil) }
	put := func(path string, v any) *http.Request {
		body, _ := json.Marshal(v)
		r := httptest.NewRequest(http.MethodPut, path, bytes.NewReader(body))
		r.Header.Set("Content-Type", "application/json")
		return r
	}
	switch o.kind {
	case kDiscoverDS:
		return get("/v1/datasets?query=" + url.QueryEscape(o.arg))
	case kDiscoverDV:
		return get("/v1/derivations?query=" + url.QueryEscape(o.arg))
	case kGetDS:
		return get("/v1/datasets/" + url.PathEscape(o.arg))
	case kGetDV:
		return get("/v1/derivations/" + url.PathEscape(o.arg))
	case kAncestors:
		return get("/v1/ancestors/" + url.PathEscape(o.arg))
	case kDescendants:
		return get("/v1/descendants/" + url.PathEscape(o.arg))
	case kLineage:
		return get("/v1/lineage/" + url.PathEscape(o.arg))
	case kExportSince:
		r := get("/v1/export?since=" + strconv.FormatUint(tp.handlerSeq, 10) +
			"&instance=" + strconv.FormatUint(tp.handler.Instance(), 10))
		r.Header.Set("Accept", codec.BinaryContentType)
		return r
	case kPutDS:
		return put("/v1/datasets", o.ds)
	case kPutDV:
		return put("/v1/derivations", o.dv)
	case kPutIV:
		return put("/v1/invocations", o.iv)
	default:
		return put("/v1/replicas", o.rep)
	}
}

// warm runs a discovery op on both twins untimed; other kinds leave no
// cache state behind.
func (tp *tracePass) warm(o *op) {
	if o.kind != kDiscoverDS && o.kind != kDiscoverDV {
		return
	}
	tp.srv.ServeHTTP(httptest.NewRecorder(), tp.request(o))
	if e, err := query.Parse(o.arg); err == nil {
		query.Run(tp.steps, queryKind(o.kind), e)
	}
}

func queryKind(k opKind) query.Kind {
	if k == kDiscoverDV {
		return query.KDerivation
	}
	return query.KDataset
}

// timed runs fn inside a span, handing it the span's context, and
// returns that context and how long fn took.
func timed(ctx context.Context, name string, fn func(context.Context)) (context.Context, time.Duration) {
	ctx, span := obs.StartSpan(ctx, name)
	t0 := time.Now()
	fn(ctx)
	d := time.Since(t0)
	span.End()
	return ctx, d
}

// addTo applies a write op to a catalog directly. Re-registering an
// existing derivation is reuse, not an error.
func addTo(cat *catalog.Catalog, o *op) error {
	var err error
	switch o.kind {
	case kPutDS:
		err = cat.AddDataset(o.ds)
	case kPutDV:
		if _, err = cat.AddDerivation(o.dv); errors.Is(err, catalog.ErrDuplicate) {
			err = nil
		}
	case kPutIV:
		err = cat.AddInvocation(o.iv)
	case kPutRep:
		err = cat.AddReplica(o.rep)
	}
	return err
}

// roundTrip executes one op against vdcd under a root span and returns
// the span's context for the decomposition to hang under, or nil if
// the op failed.
func (tp *tracePass) roundTrip(o *op) context.Context {
	res := tp.run.res
	ctx := obs.WithTracer(context.Background(), tp.tracer)
	var opErr error
	rctx, rootDur := timed(ctx, "op."+o.kind.String(), func(ctx context.Context) { opErr = tp.client.do(ctx, o) })
	res.Attempted++
	if opErr != nil {
		res.Failed++
		res.fail("traced replay: %v", opErr)
		return nil
	}
	cl := o.kind.class()
	tp.root[cl] = append(tp.root[cl], rootDur)
	return rctx
}

// decompose executes on the twins the op whose real round trip ran
// under rctx.
func (tp *tracePass) decompose(rctx context.Context, o *op) error {
	cl := o.kind.class()
	req := tp.request(o)
	rec := httptest.NewRecorder()
	hctx, handlerDur := timed(rctx, "vds.handler", func(context.Context) { tp.srv.ServeHTTP(rec, req) })
	if rec.Code/100 != 2 {
		return fmt.Errorf("twin handler answered %d to %s %s: %s", rec.Code, req.Method, req.URL, rec.Body)
	}
	tp.handlerDur[cl] = append(tp.handlerDur[cl], handlerDur)
	if o.kind == kExportSince {
		tp.handlerSeq = tp.handler.Seq()
	}

	var children time.Duration
	step := func(name string, fn func()) time.Duration {
		_, d := timed(hctx, name, func(context.Context) { fn() })
		children += d
		return d
	}
	encode := func(v any) { step("codec.json_encode", func() { json.NewEncoder(io.Discard).Encode(v) }) }
	var stepErr error
	switch o.kind {
	case kDiscoverDS, kDiscoverDV:
		var e query.Expr
		tp.parse = append(tp.parse, step("query.parse", func() { e, stepErr = query.Parse(o.arg) }))
		if stepErr != nil {
			return stepErr
		}
		step("catalog.view", func() { tp.steps.View().Close() })
		var out query.Results
		hits := query.CacheStats().Hits
		d := step("query.run", func() { out, stepErr = query.Run(tp.steps, queryKind(o.kind), e) })
		if query.CacheStats().Hits > hits {
			tp.hit = append(tp.hit, d)
		} else {
			tp.miss = append(tp.miss, d)
		}
		tp.discovers++
		if o.kind == kDiscoverDS {
			tp.rows += len(out.Datasets)
			encode(out.Datasets)
		} else {
			tp.rows += len(out.Derivations)
			encode(out.Derivations)
		}
	case kGetDS:
		var ds schema.Dataset
		step("catalog.get", func() { ds, stepErr = tp.steps.Dataset(o.arg) })
		encode(ds)
	case kGetDV:
		var dv schema.Derivation
		step("catalog.get", func() { dv, stepErr = tp.steps.Derivation(o.arg) })
		encode(dv)
	case kAncestors, kDescendants:
		var c catalog.Closure
		step("catalog.lineage", func() {
			if o.kind == kAncestors {
				c, stepErr = tp.steps.Ancestors(o.arg)
			} else {
				c, stepErr = tp.steps.Descendants(o.arg)
			}
		})
		encode(c)
	case kLineage:
		var rep catalog.LineageReport
		step("catalog.lineage", func() { rep, stepErr = tp.steps.Lineage(o.arg) })
		encode(rep)
	case kExportSince:
		var d catalog.Delta
		step("catalog.changes_since", func() { d = tp.steps.ChangesSince(tp.stepsSeq, tp.steps.Instance()) })
		tp.stepsSeq = tp.steps.Seq()
		bin, err := codec.Lookup(codec.BinaryName)
		if err != nil {
			return err
		}
		step("codec.binary_encode", func() { stepErr = bin.EncodeDelta(io.Discard, d.CodecDelta()) })
	default:
		mctx, d := timed(hctx, "catalog.mutate", func(context.Context) { stepErr = addTo(tp.steps, o) })
		children += d
		tp.mutate = append(tp.mutate, d)
		if stepErr == nil {
			_, ad := timed(mctx, "catalog.apply", func(context.Context) { stepErr = addTo(tp.memory, o) })
			tp.apply = append(tp.apply, ad)
		}
	}
	if stepErr != nil {
		return fmt.Errorf("twin %s %q: %w", o.kind, o.arg, stepErr)
	}
	if cl == tp.run.spec.primary {
		tp.self = append(tp.self, handlerDur-children)
	}
	return nil
}

// report turns the replay's samples into per-layer metrics.
func (tp *tracePass) report() {
	res := tp.run.res
	res.set("vds.transport_us", tp.infoRTT.p50us()-tp.infoHandler.p50us(), len(tp.infoRTT))
	res.set("vds.handler_read_us", tp.handlerDur[classRead].p50us(), len(tp.handlerDur[classRead]))
	res.set("vds.handler_write_us", tp.handlerDur[classWrite].p50us(), len(tp.handlerDur[classWrite]))
	res.set("vds.self_us", tp.self.p50us(), len(tp.self))
	res.set("query.parse_us", tp.parse.p50us(), len(tp.parse))
	res.set("query.run_hit_us", tp.hit.p50us(), len(tp.hit))
	res.set("query.run_miss_us", tp.miss.p50us(), len(tp.miss))
	res.set("query.rows_per_op", ratio(float64(tp.rows), float64(tp.discovers)), tp.discovers)
	res.set("catalog.mutate_us", tp.mutate.p50us(), len(tp.mutate))
	res.set("catalog.apply_us", tp.apply.p50us(), len(tp.apply))
	res.set("catalog.wal_commit_us", tp.mutate.p50us()-tp.apply.p50us(), len(tp.mutate))

	prim := tp.run.spec.primary
	e2e := tp.root[prim].p50us()
	attributed := res.Metrics["vds.transport_us"].Value + tp.handlerDur[prim].p50us()
	diff := e2e - attributed
	if diff < 0 {
		diff = -diff
	}
	res.set("trace.unattributed_ratio", ratio(diff, e2e), len(tp.root[prim]))
	window := tp.run.loop.lat[prim].p50us()
	res.set("trace.overhead_ratio", ratio(e2e, window)-1, len(tp.root[prim]))
}

// median3 runs fn three times and returns the median duration.
func median3(fn func()) time.Duration {
	var ds [3]time.Duration
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = time.Since(t0)
	}
	sort.Slice(ds[:], func(i, j int) bool { return ds[i] < ds[j] })
	return ds[1]
}

func mbPerSecond(n int, d time.Duration) float64 { return ratio(float64(n)/1e6, d.Seconds()) }

// probes times the catalog and codec functions no client op reaches on
// its own, on the steps twin as the replay left it.
func (tp *tracePass) probes() error {
	res, cat, m := tp.run.res, tp.steps, tp.run.model
	rng := rand.New(rand.NewSource(tp.run.cfg.seed))

	const pins = 200000
	t0 := time.Now()
	for i := 0; i < pins; i++ {
		cat.View().Close()
	}
	res.set("catalog.view_pin_ns", float64(time.Since(t0).Nanoseconds())/pins, pins)

	var lineage samples
	for i := 0; i < 1000; i++ {
		name := m.last(rng.Intn(m.chains))
		t := time.Now()
		if _, err := cat.Lineage(name); err != nil {
			return err
		}
		lineage = append(lineage, time.Since(t))
	}
	res.set("catalog.lineage_us", lineage.p50us(), len(lineage))

	// A delta of 50 fresh objects, as a crawler one pass behind sees it.
	const changes = 50
	since, instance := cat.Seq(), cat.Instance()
	for i := 0; i < changes; i++ {
		ds := schema.Dataset{Name: fmt.Sprintf("probe.note.%04d", i), Attrs: schema.Attributes{"project": "probe"}}
		if err := cat.AddDataset(ds); err != nil {
			return err
		}
	}
	var delta catalog.Delta
	var since50 samples
	for i := 0; i < 200; i++ {
		t := time.Now()
		delta = cat.ChangesSince(since, instance)
		since50 = append(since50, time.Since(t))
	}
	if delta.Full || len(delta.Export.Datasets) != changes {
		res.fail("probe delta: full=%v with %d datasets, want an incremental delta of %d", delta.Full, len(delta.Export.Datasets), changes)
	}
	res.set("catalog.changes_since_us", since50.p50us(), len(since50))
	bin, err := codec.Lookup(codec.BinaryName)
	if err != nil {
		return err
	}
	jsonCodec, err := codec.Lookup(codec.JSONName)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := bin.EncodeDelta(&buf, delta.CodecDelta()); err != nil {
		return err
	}
	res.set("codec.delta_bytes_per_change", float64(buf.Len())/changes, changes)

	var exp catalog.Export
	res.set("catalog.export_ms", float64(median3(func() { exp = cat.Export() }))/float64(time.Millisecond), 3)
	objects := len(exp.Datasets) + len(exp.Transformations) + len(exp.Derivations) + len(exp.Invocations) + len(exp.Replicas)
	payload := exp.CodecPayload()
	var encErr error
	d := median3(func() { buf.Reset(); encErr = jsonCodec.EncodeSnapshot(&buf, payload) })
	res.set("codec.json_encode_mb_s", mbPerSecond(buf.Len(), d), 3)
	d = median3(func() { buf.Reset(); encErr = errors.Join(encErr, bin.EncodeSnapshot(&buf, payload)) })
	res.set("codec.binary_encode_mb_s", mbPerSecond(buf.Len(), d), 3)
	res.set("codec.snapshot_bytes_per_object", float64(buf.Len())/float64(objects), objects)
	var back *codec.Payload
	d = median3(func() {
		var err error
		back, err = bin.DecodeSnapshot(buf.Bytes())
		encErr = errors.Join(encErr, err)
	})
	if encErr != nil {
		return encErr
	}
	if len(back.Datasets) != len(exp.Datasets) || len(back.Derivations) != len(exp.Derivations) {
		res.fail("binary round trip lost objects: %d/%d datasets, %d/%d derivations",
			len(back.Datasets), len(exp.Datasets), len(back.Derivations), len(exp.Derivations))
	}
	res.set("codec.binary_decode_mb_s", mbPerSecond(buf.Len(), d), 3)

	t0 = time.Now()
	if err := cat.Snapshot(); err != nil {
		return err
	}
	res.set("catalog.snapshot_s", time.Since(t0).Seconds())

	// Reopen: what a restart costs in time and, with the old copy
	// dropped first, what the catalog costs in heap.
	if err := cat.Close(); err != nil {
		return err
	}
	tp.steps, cat, exp, payload, back = nil, nil, catalog.Export{}, nil, nil
	buf = bytes.Buffer{}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 = time.Now()
	reopened, err := catalog.Open(tp.stepDir, dtype.StandardRegistry(), catalogOptions())
	if err != nil {
		return err
	}
	res.set("catalog.open_s", time.Since(t0).Seconds())
	tp.steps = reopened
	runtime.GC()
	runtime.ReadMemStats(&after)
	res.set("catalog.heap_bytes_per_object", float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/float64(objects), objects)
	if got := statsObjects(reopened.Stats()); got != objects {
		res.fail("reopened twin holds %d objects, exported %d", got, objects)
	}
	return nil
}
