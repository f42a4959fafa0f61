package planner

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"chimera/internal/dag"
	"chimera/internal/executor"
	"chimera/internal/grid"
	"chimera/internal/schema"
)

// The reference placement: Assign as it stood before sites carried
// aggregates, kept verbatim as the oracle of TestAssignMatchesNaive.
// Every number comes from a walk over host lists and every lookup from
// a string-keyed probe inside the site loop — O(sites × hosts) per
// decision, with the sort of each site's host names thrown in — and
// replicas are registered with the synchronous AddReplica. It runs on a
// Planner of its own and keeps that planner's accesses, pending counts,
// reservations and replica sequence the way Assign does.

type naiveCache struct {
	p     *Planner
	sites map[string][]string
	sizes map[string]int64
}

func newNaiveCache(p *Planner) *naiveCache {
	return &naiveCache{p: p, sites: make(map[string][]string), sizes: make(map[string]int64)}
}

func (c *naiveCache) replicaSites(ds string) []string {
	if s, ok := c.sites[ds]; ok {
		return s
	}
	s := naiveReplicaSites(c.p, ds)
	c.sites[ds] = s
	return s
}

func (c *naiveCache) sizeOf(ds string) int64 {
	if v, ok := c.sizes[ds]; ok {
		return v
	}
	v := naiveSizeOf(c.p, ds)
	c.sizes[ds] = v
	return v
}

func (c *naiveCache) invalidate(ds string) { delete(c.sites, ds) }

func naiveSizeOf(p *Planner, ds string) int64 {
	rec, recErr := p.Cat.Dataset(ds)
	if recErr == nil && rec.Size > 0 {
		return rec.Size
	}
	for _, r := range p.Cat.ReplicasOf(ds) {
		if r.Size > 0 {
			return r.Size
		}
	}
	if recErr == nil && rec.CreatedBy != "" && p.Est != nil {
		if dv, err := p.Cat.Derivation(rec.CreatedBy); err == nil {
			if _, out := p.Est.Bytes(dv.TR); out > 0 {
				return int64(out)
			}
		}
	}
	return p.DefaultSize
}

func naiveReplicaSites(p *Planner, ds string) []string {
	rec, err := p.Cat.Dataset(ds)
	if err != nil {
		return nil
	}
	var sites []string
	seen := make(map[string]bool)
	for _, r := range p.Cat.ReplicasOf(ds) {
		if r.Epoch == rec.Epoch && !seen[r.Site] {
			seen[r.Site] = true
			sites = append(sites, r.Site)
		}
	}
	sort.Strings(sites)
	return sites
}

func naiveTransferCost(p *Planner, from, to string, bytes int64) (float64, error) {
	t, err := p.Cluster.Grid.TransferTime(from, to, bytes)
	if err != nil {
		return 0, err
	}
	if len(p.LinkClassWeight) > 0 {
		if w, ok := p.LinkClassWeight[p.Cluster.Grid.ClassBetween(from, to)]; ok && w > 0 {
			t *= w
		}
	}
	return t, nil
}

func naiveSiteLoad(g *grid.Grid, site string) float64 {
	s, ok := g.Site(site)
	if !ok || len(s.Hosts) == 0 {
		return 0
	}
	jobs, cores := 0, 0
	for _, h := range s.Hosts {
		if h.Down() {
			continue
		}
		jobs += h.Load()
		cores += h.Cores
	}
	if cores == 0 {
		return 1e9
	}
	return float64(jobs) / float64(cores)
}

func naivePendingLoad(p *Planner, site string) float64 {
	if p.DisablePendingLoad {
		return 0
	}
	s, ok := p.Cluster.Grid.Site(site)
	if !ok || len(s.Hosts) == 0 {
		return 0
	}
	cores := 0
	for _, h := range s.Hosts {
		cores += h.Cores
	}
	return float64(p.pending[s]) / float64(cores)
}

func naiveMeanSpeed(g *grid.Grid, site string) float64 {
	s, ok := g.Site(site)
	if !ok || len(s.Hosts) == 0 {
		return 1
	}
	sum := 0.0
	for _, h := range s.Hosts {
		sum += h.Speed
	}
	return sum / float64(len(s.Hosts))
}

func naiveBestSource(p *Planner, ds, dst string, lc *naiveCache) (site string, seconds float64, ok bool) {
	best := math.Inf(1)
	size := lc.sizeOf(ds)
	for _, s := range lc.replicaSites(ds) {
		t, err := naiveTransferCost(p, s, dst, size)
		if err != nil {
			continue
		}
		if t < best || (t == best && s < site) {
			best, site, ok = t, s, true
		}
	}
	return site, best, ok
}

func naiveSiteCost(p *Planner, n *dag.Node, tr schema.Transformation, site string, lc *naiveCache) (float64, []executor.StageIn, error) {
	if len(p.Cluster.Grid.HostNames(site)) == 0 {
		return 0, nil, fmt.Errorf("planner: site %q has no compute hosts", site)
	}
	refWork, _ := p.Est.Work(n.Derivation.TR)
	work := refWork / naiveMeanSpeed(p.Cluster.Grid, site)
	var transfers []executor.StageIn
	cost := 0.0

	cost += (naiveSiteLoad(p.Cluster.Grid, site) + naivePendingLoad(p, site)) * work

	for _, in := range n.Inputs {
		sites := lc.replicaSites(in)
		if containsStr(sites, site) {
			continue
		}
		src, secs, ok := naiveBestSource(p, in, site, lc)
		if !ok {
			return 0, nil, fmt.Errorf("planner: no replica of %q reachable from %q", in, site)
		}
		cost += secs
		transfers = append(transfers, executor.StageIn{Dataset: in, FromSite: src, Bytes: lc.sizeOf(in)})
	}

	homes := homeSites(tr)
	if len(homes) > 0 && !containsStr(homes, site) {
		ic, movable := installCost(tr)
		if !movable {
			return 0, nil, fmt.Errorf("planner: procedure %s unavailable at %q", tr.Ref(), site)
		}
		cost += ic
	}

	cost += work
	return cost, transfers, nil
}

func naiveCandidateSites(p *Planner, n *dag.Node, tr schema.Transformation, lc *naiveCache) []string {
	all := p.Cluster.Grid.Sites()
	homes := homeSites(tr)
	_, movable := installCost(tr)
	switch p.Mode {
	case ShipDataToProcedure:
		if len(homes) > 0 {
			return homes
		}
		return all
	case ShipProcedureToData:
		byBytes := make(map[string]int64)
		for _, in := range n.Inputs {
			for _, s := range lc.replicaSites(in) {
				byBytes[s] += lc.sizeOf(in)
			}
		}
		best, bestBytes := "", int64(-1)
		for _, s := range all {
			if len(homes) > 0 && !movable && !containsStr(homes, s) {
				continue
			}
			if byBytes[s] > bestBytes || (byBytes[s] == bestBytes && s < best) {
				best, bestBytes = s, byBytes[s]
			}
		}
		if best != "" {
			return []string{best}
		}
		return all
	default:
		if len(homes) > 0 && !movable {
			return homes
		}
		return all
	}
}

func naiveAssign(p *Planner, n *dag.Node) (executor.Placement, error) {
	tr, err := p.Cat.Transformation(n.Derivation.TR)
	if err != nil {
		return executor.Placement{}, err
	}
	lc := newNaiveCache(p)
	var (
		bestSite  string
		bestCost  = math.Inf(1)
		bestXfers []executor.StageIn
		lastErr   error
	)
	for _, site := range naiveCandidateSites(p, n, tr, lc) {
		cost, xfers, err := naiveSiteCost(p, n, tr, site, lc)
		if err != nil {
			lastErr = err
			continue
		}
		if cost < bestCost || (cost == bestCost && site < bestSite) {
			bestSite, bestCost, bestXfers = site, cost, xfers
		}
	}
	if math.IsInf(bestCost, 1) {
		if lastErr != nil {
			return executor.Placement{}, lastErr
		}
		return executor.Placement{}, errors.New("planner: no feasible site")
	}

	work, _ := p.Est.Work(n.Derivation.TR)
	outBytes := make(map[string]int64, len(n.Outputs))
	for _, out := range n.Outputs {
		outBytes[out] = lc.sizeOf(out)
	}
	for _, x := range bestXfers {
		naiveNoteAccess(p, x.Dataset, bestSite, x.Bytes, lc)
	}
	best, _ := p.Cluster.Grid.Site(bestSite)
	p.pending[best]++
	return executor.Placement{
		Site:        bestSite,
		Work:        work,
		NoiseAmp:    p.NoiseAmp,
		Transfers:   bestXfers,
		OutputBytes: outBytes,
	}, nil
}

func naiveNoteAccess(p *Planner, ds, site string, bytes int64, lc *naiveCache) {
	m := p.accesses[ds]
	if m == nil {
		m = make(map[string]int)
		p.accesses[ds] = m
	}
	m[site]++
	snapshot := make(map[string]int, len(m))
	for k, v := range m {
		snapshot[k] = v
	}
	m = snapshot
	if p.Replication == nil {
		return
	}
	src, _, ok := naiveBestSource(p, ds, site, lc)
	if !ok {
		return
	}
	for _, dst := range p.Replication.OnAccess(ds, bytes, src, site, m) {
		if containsStr(lc.replicaSites(ds), dst) {
			continue
		}
		rec, err := p.Cat.Dataset(ds)
		if err != nil {
			continue
		}
		if !p.reserveStorage(dst, bytes) {
			continue
		}
		p.repSeq++
		rep := schema.Replica{
			ID:      fmt.Sprintf("cache-%s-%s-%d", ds, dst, p.repSeq),
			Dataset: ds, Site: dst,
			PFN:   fmt.Sprintf("/cache/%s/%s", dst, ds),
			Size:  bytes,
			Epoch: rec.Epoch,
			Attrs: schema.Attributes{"replication": p.Replication.Name()},
		}
		if err := p.Cat.AddReplica(rep); err != nil {
			p.unreserveStorage(dst, bytes)
			continue
		}
		p.allocated[rep.ID] = bytes
		lc.invalidate(ds)
		if dst != site {
			p.Cluster.TransferData(&grid.Transfer{
				ID: rep.ID, From: src, To: dst, Bytes: bytes,
			})
		}
	}
}
