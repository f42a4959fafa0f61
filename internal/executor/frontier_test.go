package executor

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"testing"
	"time"

	"chimera/internal/catalog"
	"chimera/internal/dag"
	"chimera/internal/schema"
)

// genLayered builds a randomized layered DAG of ~layers*width nodes:
// each node consumes one or two datasets of the previous layer, so
// graphs mix chains, fan-out and fan-in — the shapes the frontier
// scheduler must agree with dag.Ready on.
func genLayered(t testing.TB, layers, width int, seed int64) *dag.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var dvs []schema.Derivation
	prev := []string{"src"}
	for l := 0; l < layers; l++ {
		cur := make([]string, 0, width)
		for i := 0; i < width; i++ {
			out := fmt.Sprintf("d%d-%d", l, i)
			if len(prev) < 2 || rng.Intn(2) == 0 {
				dvs = append(dvs, dv1(prev[rng.Intn(len(prev))], out))
			} else {
				i1 := prev[rng.Intn(len(prev))]
				i2 := prev[rng.Intn(len(prev))]
				for i2 == i1 {
					i2 = prev[rng.Intn(len(prev))]
				}
				dvs = append(dvs, dv2(i1, i2, out))
			}
			cur = append(cur, out)
		}
		prev = cur
	}
	g, err := dag.Build(dvs, schema.MapResolver(tr1(), tr2()))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// hashExit deterministically fails ~one attempt in four, keyed by
// (node, attempt), so retry and permanent-failure paths are exercised
// identically across runs and modes.
func hashExit(node string, attempt int) int {
	h := fnv.New32a()
	fmt.Fprintf(h, "%s/%d", node, attempt)
	if h.Sum32()%4 == 0 {
		return 1
	}
	return 0
}

type eventKey struct {
	Kind    string
	Node    string
	Attempt int
}

// runNull executes g on a NullDriver and returns the event stream.
func runNull(t *testing.T, g *dag.Graph, retries int) ([]eventKey, Report) {
	t.Helper()
	var events []eventKey
	ex := &Executor{
		Driver:     &NullDriver{ExitCode: hashExit},
		Assign:     fixedAssign(1),
		MaxRetries: retries,
		OnEvent: func(ev Event) {
			events = append(events, eventKey{ev.Kind, ev.Node, ev.Attempt})
		},
	}
	rep, err := ex.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	return events, rep
}

// rescanModel is the reference the frontier is held to: the executor's
// dispatch/complete protocol over a FIFO of instant completions (what
// NullDriver delivers), with the scheduling decision made the slow,
// obviously-right way — a full dag.Ready rescan of the graph after
// every successful completion. It returns the event stream and report
// counters an Executor must reproduce for the same graph, retry bound
// and hashExit outcomes.
func rescanModel(g *dag.Graph, retries int) ([]eventKey, Report) {
	type job struct {
		n       *dag.Node
		attempt int
	}
	var (
		events     []eventKey
		queue      []job
		rep        Report
		done       = map[string]bool{}
		failed     = map[string]bool{}
		dispatched = map[string]bool{}
	)
	start := func(n *dag.Node, attempt int) {
		kind := "dispatch"
		if attempt > 0 {
			kind = "redispatch"
			rep.Retries++
		}
		dispatched[n.ID] = true
		events = append(events, eventKey{kind, n.ID, attempt})
		queue = append(queue, job{n, attempt})
	}
	rescan := func() {
		for _, n := range g.Ready(done) {
			if !dispatched[n.ID] && !failed[n.ID] {
				start(n, 0)
			}
		}
	}
	rescan()
	for len(queue) > 0 {
		j := queue[0]
		queue = queue[1:]
		switch {
		case hashExit(j.n.ID, j.attempt) == 0:
			done[j.n.ID] = true
			rep.Completed++
			events = append(events, eventKey{"done", j.n.ID, j.attempt})
			rescan()
		case j.attempt < retries:
			events = append(events, eventKey{"retry", j.n.ID, j.attempt})
			start(j.n, j.attempt+1)
		default:
			failed[j.n.ID] = true
			rep.Failed++
			events = append(events, eventKey{"fail", j.n.ID, j.attempt})
		}
	}
	rep.Blocked = g.Len() - rep.Completed - rep.Failed
	return events, rep
}

// TestFrontierMatchesReadyOracle proves the incremental indegree
// frontier equivalent to a dag.Ready rescan: over randomized DAGs with
// deterministic failures and retries, the executor must produce the
// *identical* event sequence as rescanModel (which consults dag.Ready
// directly, so byte-for-byte equal streams mean the frontier never
// dispatches early, late, out of order, or at all differently).
func TestFrontierMatchesReadyOracle(t *testing.T) {
	shapes := []struct{ layers, width int }{
		{1, 1}, {1, 8}, {12, 1}, {4, 6}, {6, 10}, {3, 30},
	}
	for seed := int64(0); seed < 8; seed++ {
		for _, sh := range shapes {
			for _, retries := range []int{0, 2} {
				g := genLayered(t, sh.layers, sh.width, seed)
				got, gotRep := runNull(t, g, retries)
				want, wantRep := rescanModel(g, retries)
				if len(got) != len(want) {
					t.Fatalf("seed=%d shape=%dx%d retries=%d: %d events vs %d (oracle)",
						seed, sh.layers, sh.width, retries, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("seed=%d shape=%dx%d retries=%d: event %d = %+v, oracle %+v",
							seed, sh.layers, sh.width, retries, i, got[i], want[i])
					}
				}
				if gotRep.Completed != wantRep.Completed || gotRep.Failed != wantRep.Failed ||
					gotRep.Blocked != wantRep.Blocked || gotRep.Retries != wantRep.Retries {
					t.Fatalf("seed=%d shape=%dx%d: report %+v vs oracle %+v",
						seed, sh.layers, sh.width, gotRep, wantRep)
				}
			}
		}
	}
}

// stormDriver registers deterministic-failure transform functions on a
// LocalDriver: each function sleeps a few hundred microseconds (so
// completions genuinely overlap) and fails per hashExit on the node's
// attempt counter.
func stormDriver(t *testing.T) *LocalDriver {
	t.Helper()
	drv := NewLocalDriver(t.TempDir())
	var mu sync.Mutex
	attempts := make(map[string]int)
	fn := func(task Task) error {
		mu.Lock()
		a := attempts[task.Node.ID]
		attempts[task.Node.ID] = a + 1
		mu.Unlock()
		time.Sleep(time.Duration(100+rand.Intn(200)) * time.Microsecond)
		if hashExit(task.Node.ID, a) != 0 {
			return fmt.Errorf("injected failure %s attempt %d", task.Node.ID, a)
		}
		return nil
	}
	drv.Register("t", fn)
	drv.Register("m", fn)
	return drv
}

// TestRecordingStormMatchesSerial drives a LocalDriver workflow with
// overlapping completions and retries through the scheduler (frontier +
// recording pipeline) and asserts that what it reports and records is
// what the serial rescanModel says one-completion-at-a-time execution
// of the same graph produces: the report counters, one invocation per
// attempt with that attempt's exit code, and one replica per output of
// every node that succeeded. Run under -race this is also the data-race
// storm for the scheduler/recorder/planner surfaces.
func TestRecordingStormMatchesSerial(t *testing.T) {
	cat := catalog.New(nil)
	if err := cat.AddTransformation(tr1()); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddTransformation(tr2()); err != nil {
		t.Fatal(err)
	}
	g := genLayered(t, 6, 20, 99)
	for _, n := range g.Nodes() {
		if _, err := cat.AddDerivation(n.Derivation); err != nil {
			t.Fatal(err)
		}
	}
	ex := &Executor{
		Driver:     stormDriver(t),
		Catalog:    cat,
		MaxRetries: 3,
		Assign: func(n *dag.Node) (Placement, error) {
			out := map[string]int64{}
			for _, o := range n.Outputs {
				out[o] = 100
			}
			return Placement{OutputBytes: out}, nil
		},
	}
	conc, err := ex.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	events, serial := rescanModel(g, ex.MaxRetries)

	if conc.Completed != serial.Completed || conc.Failed != serial.Failed ||
		conc.Blocked != serial.Blocked || conc.Retries != serial.Retries {
		t.Fatalf("concurrent report %+v, serial %+v", conc, serial)
	}

	// Every attempt ends in exactly one of done, retry or fail.
	wantIV := map[string]int{}
	wantRep := map[string]schema.Replica{}
	for _, ev := range events {
		iv := fmt.Sprintf("iv-%s-%d", ev.Node, ev.Attempt)
		switch ev.Kind {
		case "retry", "fail":
			wantIV[iv] = 1
		case "done":
			wantIV[iv] = 0
			n, _ := g.Node(ev.Node)
			for _, out := range n.Outputs {
				id := fmt.Sprintf("rep-%s-local-e0", out)
				wantRep[id] = schema.Replica{ID: id, Dataset: out, Site: "local", Size: 100, ProducedBy: iv}
			}
		}
	}
	if len(conc.Results) != len(wantIV) {
		t.Fatalf("results: %d vs %d attempts", len(conc.Results), len(wantIV))
	}
	gotIV := map[string]int{}
	for _, iv := range cat.Invocations() {
		gotIV[iv.ID] = iv.ExitCode
	}
	if len(gotIV) != len(wantIV) {
		t.Fatalf("invocations: %d vs %d", len(gotIV), len(wantIV))
	}
	for id, exit := range wantIV {
		if got, ok := gotIV[id]; !ok || got != exit {
			t.Errorf("invocation %s: got exit %d (present=%v), serial %d", id, got, ok, exit)
		}
	}

	gotRep := map[string]schema.Replica{}
	for _, ds := range cat.Datasets() {
		for _, r := range cat.ReplicasOf(ds.Name) {
			gotRep[r.ID] = r
		}
	}
	if len(gotRep) != len(wantRep) {
		t.Fatalf("replicas: %d vs %d", len(gotRep), len(wantRep))
	}
	for id, want := range wantRep {
		got, ok := gotRep[id]
		if !ok {
			t.Errorf("replica %s missing", id)
			continue
		}
		if got.Dataset != want.Dataset || got.Site != want.Site ||
			got.Size != want.Size || got.Epoch != want.Epoch || got.ProducedBy != want.ProducedBy {
			t.Errorf("replica %s: %+v vs serial %+v", id, got, want)
		}
	}
}

// TestPipelinedRecordingBatchesWAL proves the point of the off-lock
// pipeline: against a fsync-on-commit catalog, overlapping completions
// must reach the group committer together, i.e. the mean WAL batch
// carries more than one record. (Waiting inline under the scheduler
// lock, a batch could never span completions.)
func TestPipelinedRecordingBatchesWAL(t *testing.T) {
	cat, err := catalog.Open(t.TempDir(), nil, catalog.Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	if err := cat.AddTransformation(tr1()); err != nil {
		t.Fatal(err)
	}
	var dvs []schema.Derivation
	for i := 0; i < 150; i++ {
		dvs = append(dvs, dv1("src", fmt.Sprintf("out%d", i)))
	}
	g, err := dag.Build(dvs, schema.MapResolver(tr1()))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range g.Nodes() {
		if _, err := cat.AddDerivation(n.Derivation); err != nil {
			t.Fatal(err)
		}
	}
	drv := NewLocalDriver(t.TempDir())
	drv.Register("t", func(Task) error {
		time.Sleep(200 * time.Microsecond)
		return nil
	})
	batches0, records0 := catalog.WALBatchStats()
	ex := &Executor{Driver: drv, Catalog: cat,
		Assign: func(n *dag.Node) (Placement, error) {
			return Placement{OutputBytes: map[string]int64{n.Outputs[0]: 1}}, nil
		}}
	rep, err := ex.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Succeeded() {
		t.Fatalf("report: %+v", rep)
	}
	batches, records := catalog.WALBatchStats()
	db, dr := batches-batches0, records-records0
	if db == 0 {
		t.Fatal("no WAL batches recorded")
	}
	if mean := dr / float64(db); mean <= 1.0 {
		t.Errorf("mean WAL batch = %.2f records; pipelined completions should group-commit (>1)", mean)
	}
}

// BenchmarkSchedulerDispatch isolates the dispatch+complete hot path on
// a NullDriver.
func BenchmarkSchedulerDispatch(b *testing.B) {
	g := genLayered(b, 40, 50, 7) // 2000 nodes
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ex := &Executor{Driver: &NullDriver{}, Assign: fixedAssign(1)}
		if _, err := ex.Run(g); err != nil {
			b.Fatal(err)
		}
	}
}
