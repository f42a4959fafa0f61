// Package grid is the Grid substrate of the virtual data grid: a
// deterministic discrete-event simulator of compute sites, hosts,
// storage elements and wide-area network links, with a GRAM-like job
// submission interface and explicit data transfers.
//
// It replaces the physical testbed of the paper's experiments (four
// sites, ~800 hosts) with a model that exercises the same decisions —
// where to run, what to move, how long things take — reproducibly:
// given one seed and one submission sequence, every run produces the
// same trajectory.
package grid

import (
	"fmt"
	"math"
	"math/rand"
)

// Sim is the discrete-event engine. Time is simulated seconds from 0.
// Sim is not safe for concurrent use: the executor drives it from one
// goroutine, as all concurrency is simulated.
type Sim struct {
	now float64
	seq int64
	q   simQueue
	rng *rand.Rand
}

// NewSim returns a simulator seeded for reproducibility.
func NewSim(seed int64) *Sim {
	return &Sim{rng: rand.New(rand.NewSource(seed)), q: newCalQueue()}
}

// Now returns the current simulated time in seconds.
func (s *Sim) Now() float64 { return s.now }

// Rand exposes the simulation's seeded random source (for workload
// generators that want reproducible noise).
func (s *Sim) Rand() *rand.Rand { return s.rng }

// At schedules fn to run at absolute simulated time t (>= now). A
// non-finite t would silently poison the queue ordering invariants
// (NaN compares false against everything, so a heap or calendar bucket
// holding one can strand other events); it is rejected loudly instead.
func (s *Sim) At(t float64, fn func()) {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("grid: Sim.At called with non-finite time %v at now=%g; event times must be finite", t, s.now))
	}
	if t < s.now {
		t = s.now
	}
	s.seq++
	s.q.push(event{time: t, seq: s.seq, fn: fn})
}

// After schedules fn to run d seconds from now.
func (s *Sim) After(d float64, fn func()) { s.At(s.now+d, fn) }

// Step runs the next event; it reports false when no events remain.
func (s *Sim) Step() bool {
	e, ok := s.q.pop()
	if !ok {
		return false
	}
	s.now = e.time
	metricEvents.Inc()
	e.fn()
	return true
}

// Run drains the event queue and returns the final simulated time.
func (s *Sim) Run() float64 {
	for s.Step() {
	}
	return s.now
}

// RunUntil processes events until the given time; pending later events
// remain queued.
func (s *Sim) RunUntil(t float64) {
	for {
		next, ok := s.q.peek()
		if !ok || next > t {
			break
		}
		s.Step()
	}
	if s.now < t {
		s.now = t
	}
}

// Pending reports the number of queued events.
func (s *Sim) Pending() int { return s.q.len() }

// Noise returns a deterministic multiplicative jitter factor in
// [1-amp, 1+amp]; amp 0 disables noise.
func (s *Sim) Noise(amp float64) float64 {
	if amp <= 0 {
		return 1
	}
	return 1 + amp*(2*s.rng.Float64()-1)
}

// event is one pending callback. Events are ordered by (time, seq):
// the monotone seq gives simultaneous events FIFO semantics, which the
// queue must preserve exactly (the determinism contract).
type event struct {
	time float64
	seq  int64 // FIFO tie-break for simultaneous events
	fn   func()
}

// before reports the (time, seq) ordering the queue sorts by.
func (e event) before(o event) bool {
	if e.time != o.time {
		return e.time < o.time
	}
	return e.seq < o.seq
}

// simQueue is the event-queue contract, and the seam through which the
// tests run the same schedule on the heap oracle: push accepts any
// finite time >= the last popped time, pop removes the (time,
// seq)-minimum, peek reports its time without removing it.
type simQueue interface {
	push(e event)
	pop() (event, bool)
	peek() (float64, bool)
	len() int
}

func checkPositive(name string, v float64) error {
	if v <= 0 {
		return fmt.Errorf("grid: %s must be positive, got %g", name, v)
	}
	return nil
}
