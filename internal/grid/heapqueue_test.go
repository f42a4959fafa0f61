package grid

import (
	"container/heap"
	"math/rand"
)

// newHeapSim returns a Sim running on the heap oracle, injected through
// the simQueue seam.
func newHeapSim(seed int64) *Sim {
	return &Sim{rng: rand.New(rand.NewSource(seed)), q: &heapQueue{}}
}

// heapQueue is the original pointer-heavy container/heap engine, kept
// unchanged in test code as the equivalence oracle and the perf baseline: every push
// allocates one *event node and pays O(log n) sift, which is what the
// calendar queue is measured against in BenchmarkSimEventThroughput.
type heapQueue struct{ events heapEvents }

func (h *heapQueue) push(e event) {
	heap.Push(&h.events, &heapEvent{event: e})
}

func (h *heapQueue) pop() (event, bool) {
	if h.events.Len() == 0 {
		return event{}, false
	}
	return heap.Pop(&h.events).(*heapEvent).event, true
}

func (h *heapQueue) peek() (float64, bool) {
	if h.events.Len() == 0 {
		return 0, false
	}
	return h.events[0].time, true
}

func (h *heapQueue) len() int { return h.events.Len() }

type heapEvent struct {
	event
	index int
}

type heapEvents []*heapEvent

func (q heapEvents) Len() int { return len(q) }

func (q heapEvents) Less(i, j int) bool { return q[i].event.before(q[j].event) }

func (q heapEvents) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *heapEvents) Push(x any) {
	e := x.(*heapEvent)
	e.index = len(*q)
	*q = append(*q, e)
}

func (q *heapEvents) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}
