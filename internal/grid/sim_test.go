package grid

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// driveQueueScenario runs one randomized schedule against a Sim and
// returns the full dispatch trajectory: for every dispatched event, its
// id, the sim time it ran at, and the Pending count after it ran. The
// schedule is generated from its own seeded source so both engines see
// byte-identical call sequences: bursts of simultaneous events
// (quantized times force ties), far-future outliers (exercising the
// calendar's year-skip and direct-search paths), nested rescheduling,
// and interleaved RunUntil checkpoints.
func driveQueueScenario(t *testing.T, seed int64, newSim func(int64) *Sim) []string {
	t.Helper()
	s := newSim(seed)
	rng := rand.New(rand.NewSource(seed * 7779))
	var trace []string
	id := 0
	var schedule func(depth int)
	schedule = func(depth int) {
		n := 1 + rng.Intn(6)
		for i := 0; i < n; i++ {
			id++
			eid := id
			var at float64
			switch rng.Intn(10) {
			case 0: // far-future outlier: sparse-year direct search
				at = s.Now() + 1e4 + 1e3*rng.Float64()
			case 1, 2: // exact tie burst: quantized to a coarse lattice
				at = s.Now() + float64(rng.Intn(4))
			case 3: // zero delay: same-time FIFO against running events
				at = s.Now()
			default:
				at = s.Now() + 50*rng.Float64()
			}
			reschedule := depth < 3 && rng.Intn(4) == 0
			s.At(at, func() {
				trace = append(trace, fmt.Sprintf("%d@%.9g/%d", eid, s.Now(), s.Pending()))
				if reschedule {
					schedule(depth + 1)
				}
			})
		}
	}
	// Several rounds: schedule a batch, drain part of it with RunUntil,
	// schedule more (pushing behind the current frontier), then drain.
	for round := 0; round < 5; round++ {
		schedule(0)
		s.RunUntil(s.Now() + 20*rng.Float64())
		trace = append(trace, fmt.Sprintf("until:%.9g/%d", s.Now(), s.Pending()))
		schedule(0)
	}
	end := s.Run()
	trace = append(trace, fmt.Sprintf("end:%.9g", end))
	return trace
}

// TestQueueEquivalenceOracle is the determinism contract: across many
// seeds, the calendar queue must produce the byte-identical event
// trajectory (times, order, pending counts, final state) as the heap
// oracle, including simultaneous-event tie-breaks.
func TestQueueEquivalenceOracle(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		cal := driveQueueScenario(t, seed, NewSim)
		heap := driveQueueScenario(t, seed, newHeapSim)
		if len(cal) != len(heap) {
			t.Fatalf("seed %d: trajectory lengths differ: calendar %d vs heap %d", seed, len(cal), len(heap))
		}
		for i := range cal {
			if cal[i] != heap[i] {
				t.Fatalf("seed %d: trajectories diverge at step %d: calendar %q vs heap %q",
					seed, i, cal[i], heap[i])
			}
		}
	}
}

// TestCalendarQueueResizes checks the occupancy-driven resize policy
// actually fires in both directions and never disturbs ordering.
func TestCalendarQueueResizes(t *testing.T) {
	q := newCalQueue()
	const n = 4096
	for i := 0; i < n; i++ {
		q.push(event{time: float64(i % 97), seq: int64(i), fn: func() {}})
	}
	if len(q.buckets) < n/4 {
		t.Errorf("buckets did not grow: %d for %d events", len(q.buckets), n)
	}
	grown := q.resizes
	if grown == 0 {
		t.Error("no grow resizes recorded")
	}
	var prev event
	for i := 0; i < n; i++ {
		e, ok := q.pop()
		if !ok {
			t.Fatalf("queue dried up at %d", i)
		}
		if i > 0 && e.before(prev) {
			t.Fatalf("order violated at %d: (%g,%d) after (%g,%d)", i, e.time, e.seq, prev.time, prev.seq)
		}
		prev = e
	}
	if q.resizes == grown {
		t.Error("no shrink resizes recorded while draining")
	}
	if len(q.buckets) != calMinBuckets {
		t.Errorf("buckets did not shrink back: %d", len(q.buckets))
	}
	if _, ok := q.pop(); ok {
		t.Error("pop from empty queue succeeded")
	}
}

// TestCalendarQueueSimultaneousFIFO floods one instant with events:
// the degenerate all-ties distribution (width estimation impossible)
// must still dispatch in seq order.
func TestCalendarQueueSimultaneousFIFO(t *testing.T) {
	s := NewSim(1)
	const n = 2000
	var got []int
	for i := 0; i < n; i++ {
		i := i
		s.At(5, func() { got = append(got, i) })
	}
	s.Run()
	if len(got) != n {
		t.Fatalf("dispatched %d of %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated at %d: got %d", i, v)
		}
	}
}

func TestSimAtRejectsNonFiniteTimes(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad := bad
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("At(%v) did not panic", bad)
					return
				}
				msg := fmt.Sprint(r)
				if !strings.Contains(msg, fmt.Sprint(bad)) {
					t.Errorf("panic for %v does not name the time value: %q", bad, msg)
				}
			}()
			NewSim(1).At(bad, func() {})
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("After(%v) did not panic", bad)
				}
			}()
			NewSim(1).After(bad, func() {})
		}()
	}
	// Finite times, including huge ones, stay accepted.
	s := NewSim(1)
	s.At(1e18, func() {})
	if end := s.Run(); end != 1e18 {
		t.Errorf("huge finite time mishandled: end=%g", end)
	}
}
