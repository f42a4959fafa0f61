package executor

import (
	"sync"

	"chimera/internal/obs"
)

var gaugeRecordQueue = obs.Default.Gauge("vdc_executor_record_queue",
	"Completions and placements whose catalog durability waits are still queued in the recording pipeline.")

// recorder is the executor's ordered off-lock recording pipeline.
//
// A completion applies its invocation and replica records to the
// catalog synchronously (in-memory, under the catalog lock) while it
// still holds the scheduler lock, so successors dispatched next always
// observe their inputs' replicas. What moves off-lock is the expensive
// part: blocking until the records' WAL batch is durable. Completions
// hand their durability waits to the recorder in completion order and
// return immediately; with many waits outstanding at once, the
// catalog's group committer batches them into shared fsyncs instead of
// being fed one record per scheduler-lock hold. A placement that wrote
// to the catalog itself (Placement.Waits: the planner's dynamic
// replicas) joins the same queue when its node dispatches.
//
// Ordering guarantee: waits resolve in completion order (one FIFO, one
// consumer), so the first durability failure surfaced via firstErr is
// the earliest completion whose records may not survive a restart, and
// a later completion is never reported durable while an earlier one is
// still pending.
type recorder struct {
	e *Executor

	mu     sync.Mutex
	cond   *sync.Cond
	queue  [][]func() error
	closed bool
	done   chan struct{}
}

func newRecorder(e *Executor) *recorder {
	r := &recorder{e: e, done: make(chan struct{})}
	r.cond = sync.NewCond(&r.mu)
	go r.loop()
	return r
}

// enqueue hands one completion's or placement's durability waits to
// the pipeline. Callers hold e.mu, which is what serializes jobs into
// completion order.
func (r *recorder) enqueue(waits []func() error) {
	r.mu.Lock()
	r.queue = append(r.queue, waits)
	gaugeRecordQueue.Set(float64(len(r.queue)))
	r.mu.Unlock()
	r.cond.Signal()
}

func (r *recorder) loop() {
	defer close(r.done)
	for {
		r.mu.Lock()
		for len(r.queue) == 0 && !r.closed {
			r.cond.Wait()
		}
		if len(r.queue) == 0 {
			r.mu.Unlock()
			return
		}
		waits := r.queue[0]
		r.queue = r.queue[1:]
		gaugeRecordQueue.Set(float64(len(r.queue)))
		r.mu.Unlock()
		for _, w := range waits {
			if err := w(); err != nil {
				r.e.recordErr(err)
			}
		}
	}
}

// drain closes the pipeline and blocks until every enqueued wait has
// resolved. Run calls it after the driver quiesces: every completion
// has applied and enqueued by then, so when drain returns the
// workflow's records are durable or firstErr is set.
func (r *recorder) drain() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	r.cond.Broadcast()
	<-r.done
}
