package executor

import (
	"chimera/internal/dag"
)

// NullDriver completes every started job instantly, in FIFO order, on
// the goroutine that calls Drain. It performs no work and keeps no
// timeline beyond an event counter, which isolates the executor's own
// dispatch/complete bookkeeping — the scheduler hot path — for
// benchmarks (BenchmarkSchedulerDispatch) and for deterministic
// frontier-equivalence tests.
//
// ExitCode, when set, injects failures deterministically per (node,
// attempt); the zero value succeeds everything. NullDriver is
// single-goroutine by construction (Start is only ever called from the
// executor while a completion or the initial dispatch is on the Drain
// goroutine's stack) and is not safe for concurrent use.
type NullDriver struct {
	// ExitCode chooses the exit code for an attempt (nil = always 0).
	ExitCode func(node string, attempt int) int

	queue []nullJob
	now   float64
}

type nullJob struct {
	node    *dag.Node
	attempt int
	done    func(Result)
}

// Now returns the number of completions delivered so far.
func (d *NullDriver) Now() float64 { return d.now }

// Start implements Driver by queueing an instant completion.
func (d *NullDriver) Start(n *dag.Node, p Placement, attempt int, done func(Result)) error {
	d.queue = append(d.queue, nullJob{node: n, attempt: attempt, done: done})
	return nil
}

// Drain pops queued jobs in FIFO order and delivers their results;
// completions may queue further jobs (successor dispatches, retries),
// which drain in turn.
func (d *NullDriver) Drain() {
	for len(d.queue) > 0 {
		j := d.queue[0]
		d.queue = d.queue[1:]
		exit := 0
		if d.ExitCode != nil {
			exit = d.ExitCode(j.node.ID, j.attempt)
		}
		start := d.now
		d.now++
		j.done(Result{
			Node: j.node.ID, Attempt: j.attempt, ExitCode: exit,
			Site: "null", Host: "null",
			Start: start, End: d.now,
		})
	}
}
