package grid

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkSimEventThroughput measures schedule+dispatch cost at
// 10k-host occupancy with the classic hold model: the queue is
// pre-filled to a steady-state population (two pending events per
// host: one running job, one heartbeat), then each dispatched event
// reschedules itself at a random future offset, so every benchmark
// iteration is exactly one pop plus one push at full depth. Sub-
// benchmarks run the same load through the calendar queue (default)
// and the heap oracle; the ratio is the headline speedup.
func BenchmarkSimEventThroughput(b *testing.B) {
	for _, hosts := range []int{1000, 10000} {
		occupancy := 2 * hosts
		for _, engine := range []struct {
			name   string
			newSim func(int64) *Sim
		}{
			{"calendar", NewSim},
			{"heap", newHeapSim},
		} {
			b.Run(fmt.Sprintf("hosts=%d/%s", hosts, engine.name), func(b *testing.B) {
				s := engine.newSim(1)
				rng := rand.New(rand.NewSource(2))
				// One self-rescheduling closure shared by all events keeps
				// closure construction out of the measured loop.
				var tick func()
				remaining := b.N
				tick = func() {
					if remaining <= 0 {
						return
					}
					remaining--
					s.After(0.1+10*rng.Float64(), tick)
				}
				for i := 0; i < occupancy; i++ {
					s.After(10*rng.Float64(), tick)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if !s.Step() {
						b.Fatal("queue drained")
					}
				}
			})
		}
	}
}
