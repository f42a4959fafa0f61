package main

import (
	"math"
	"sort"
	"time"
)

// samples is a set of durations from one class of operation.
type samples []time.Duration

// quantile returns the q-quantile (nearest rank) in milliseconds; the
// receiver is sorted in place. An empty set yields 0.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return float64(s[i]) / float64(time.Millisecond)
}

func (s samples) p50ms() float64 { return s.quantile(0.50) }
func (s samples) p95ms() float64 { return s.quantile(0.95) }
func (s samples) p99ms() float64 { return s.quantile(0.99) }

// p50us is the median in microseconds.
func (s samples) p50us() float64 { return s.quantile(0.50) * 1e3 }

// medianFloat returns the median of xs (0 when empty); xs is sorted in
// place.
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0 (a counter that never moved).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
