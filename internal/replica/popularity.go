// Package replica scores replica popularity: exponentially decayed
// access counts per (dataset, site), the signal the planner's dynamic
// replication and eviction policies act on. Where replicas are is
// recorded by the catalog's Replica objects.
package replica

import (
	"math"
	"sort"
	"sync"
)

// Popularity tracks exponentially decayed access popularity per
// (dataset, site): the signal behind dynamic replication (refs [18,19];
// the Venugopal taxonomy's popularity-based strategies). Each access
// bumps a score that halves every HalfLife seconds of simulated (or
// wall) time, so a dataset hammered last week scores below one touched
// this morning — which is what lets replica placement and eviction
// react to shifting community interest instead of lifetime totals.
type Popularity struct {
	// HalfLife is the decay half-life in the caller's time unit.
	// Zero or negative disables decay (scores are plain access counts).
	HalfLife float64

	mu     sync.Mutex
	scores map[string]map[string]*popEntry // dataset -> site -> entry
}

type popEntry struct {
	score float64
	last  float64 // time of last bump/observation
}

// NewPopularity returns a tracker with the given half-life.
func NewPopularity(halfLife float64) *Popularity {
	return &Popularity{HalfLife: halfLife, scores: make(map[string]map[string]*popEntry)}
}

// decayed brings an entry's score forward to time now.
func (p *Popularity) decayed(e *popEntry, now float64) float64 {
	if p.HalfLife <= 0 || now <= e.last || e.score == 0 {
		return e.score
	}
	return e.score * math.Exp2(-(now-e.last)/p.HalfLife)
}

// Bump records one access of ds by site at time now and returns the
// updated decayed score.
func (p *Popularity) Bump(ds, site string, now float64) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	m := p.scores[ds]
	if m == nil {
		m = make(map[string]*popEntry)
		p.scores[ds] = m
	}
	e := m[site]
	if e == nil {
		e = &popEntry{}
		m[site] = e
	}
	e.score = p.decayed(e, now) + 1
	if now > e.last {
		e.last = now
	}
	return e.score
}

// Score reports the decayed popularity of ds at site as of now.
func (p *Popularity) Score(ds, site string, now float64) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	m := p.scores[ds]
	if m == nil || m[site] == nil {
		return 0
	}
	return p.decayed(m[site], now)
}

// Total reports the decayed popularity of ds summed over all sites.
func (p *Popularity) Total(ds string, now float64) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	total := 0.0
	for _, e := range p.scores[ds] {
		total += p.decayed(e, now)
	}
	return total
}

// Hottest returns the site with the highest decayed score for ds (ties
// broken by site name for determinism), or "" when ds was never
// accessed.
func (p *Popularity) Hottest(ds string, now float64) (string, float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	sites := make([]string, 0, len(p.scores[ds]))
	for s := range p.scores[ds] {
		sites = append(sites, s)
	}
	sort.Strings(sites)
	best, bestScore := "", 0.0
	for _, s := range sites {
		if sc := p.decayed(p.scores[ds][s], now); sc > bestScore {
			best, bestScore = s, sc
		}
	}
	return best, bestScore
}

// Forget drops the (ds, site) entry, e.g. after the replica there is
// evicted, so stale popularity does not immediately re-create it.
func (p *Popularity) Forget(ds, site string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if m := p.scores[ds]; m != nil {
		delete(m, site)
		if len(m) == 0 {
			delete(p.scores, ds)
		}
	}
}
