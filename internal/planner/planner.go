// Package planner implements the planning facet (§5.2): mapping
// requests for virtual data products onto Grid resources. It decides
// whether a request is satisfied by existing data (reuse) or by
// computation, selects execution sites balancing queue load against
// data movement, realizes the paper's four procedure/data shipping
// patterns, and applies dynamic replication strategies (refs [18,19])
// as data is accessed.
package planner

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"chimera/internal/catalog"
	"chimera/internal/dag"
	"chimera/internal/estimator"
	"chimera/internal/executor"
	"chimera/internal/grid"
	"chimera/internal/obs"
	"chimera/internal/replica"
	"chimera/internal/schema"
)

// Planner metrics: placement latency and outcome counters.
var (
	metricAssignSeconds = obs.Default.Histogram("vdc_planner_assign_seconds",
		"Wall-clock latency of one placement decision.", obs.TimeBuckets)
	metricAssignments = obs.Default.Counter("vdc_planner_assignments_total",
		"Successful placement decisions.")
	metricAssignErrors = obs.Default.Counter("vdc_planner_assign_errors_total",
		"Placement decisions that found no feasible site.")
	metricReplicas = obs.Default.Counter("vdc_planner_replications_total",
		"Replicas created by the dynamic replication policy.")

	metricGridReplicas = obs.Default.Counter("vdc_grid_replicas_created_total",
		"Dynamic replicas created on the simulated grid by replication policies.")
	metricGridEvictions = obs.Default.Counter("vdc_grid_evictions_total",
		"Replicas evicted from simulated storage elements by reclamation.")
	metricReplicaSkips = obs.Default.Counter("vdc_planner_replica_storage_skips_total",
		"Replica creations skipped because the destination storage element was full.")
)

// DebugStats reports the dynamic-replication counters for runtime
// introspection (/debug/vdc).
func DebugStats() map[string]any {
	return map[string]any{
		"replicas_created_total":      metricGridReplicas.Value(),
		"evictions_total":             metricGridEvictions.Value(),
		"replica_storage_skips_total": metricReplicaSkips.Value(),
	}
}

// Profile keys the planner interprets on transformations.
const (
	// ProfileHomeSites pins a procedure to a comma-separated site list
	// (pattern 1/2: procedure collocated with its service sites).
	ProfileHomeSites = "hints.homeSites"
	// ProfileInstallSeconds is the cost of provisioning the procedure
	// at a non-home site (§4.3 resource virtualization); unset means
	// the procedure cannot leave its home sites.
	ProfileInstallSeconds = "hints.installSeconds"
)

// Mode selects the placement policy.
type Mode int

const (
	// Auto minimizes estimated completion time over all feasible sites.
	Auto Mode = iota
	// ShipDataToProcedure always runs at a procedure home site.
	ShipDataToProcedure
	// ShipProcedureToData always runs where most input bytes reside.
	ShipProcedureToData
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ShipDataToProcedure:
		return "ship-data"
	case ShipProcedureToData:
		return "ship-procedure"
	default:
		return "auto"
	}
}

// Planner maps workflow nodes to grid placements.
type Planner struct {
	Cat     *catalog.Catalog
	Est     *estimator.Estimator
	Cluster *grid.Cluster
	// Mode selects the shipping pattern policy.
	Mode Mode
	// Replication is applied on each cross-site access (nil = none).
	Replication ReplicationPolicy
	// DefaultSize is assumed for datasets of unknown size.
	DefaultSize int64
	// NoiseAmp passes runtime jitter into placements.
	NoiseAmp float64
	// DisablePendingLoad turns off the planner's tracking of
	// assigned-but-unfinished work when estimating queue delay. With it
	// disabled, bursts of ready nodes all see empty queues and pile
	// onto the data's home site (the A2 ablation in the harness).
	DisablePendingLoad bool
	// Pop, when set, tracks time-decayed dataset popularity (feed it to
	// a PopularityDriven policy); economy eviction prices replicas
	// with it.
	Pop *replica.Popularity
	// SimNow supplies the simulation clock for popularity decay
	// (nil = constant zero: no decay).
	SimNow func() float64
	// EconomyEviction turns on reclaim-on-full economics: when a new
	// replica does not fit its destination storage element, the lowest-
	// valued replicas there (value = popularity × transfer-cost-saved)
	// are evicted to make room. Off, a full destination just skips the
	// replica.
	EconomyEviction bool
	// LinkClassWeight scales staging costs per bandwidth-hierarchy link
	// class (grid.ClassRegional, grid.ClassTransatlantic, ...); unset
	// classes weigh 1. Weighting transatlantic links above their raw
	// transfer time biases placement toward keeping traffic low in the
	// hierarchy even when thin links are idle.
	LinkClassWeight map[string]float64

	mu        sync.Mutex
	accesses  map[string]map[string]int // dataset -> site -> count
	pending   map[*grid.Site]int        // site -> assigned-but-unfinished jobs
	allocated map[string]int64          // replica ID -> bytes reserved by this planner
	repSeq    int
}

// New returns a planner over the given catalog, estimator and cluster.
func New(cat *catalog.Catalog, est *estimator.Estimator, cl *grid.Cluster) *Planner {
	return &Planner{
		Cat: cat, Est: est, Cluster: cl,
		DefaultSize: 1 << 20,
		accesses:    make(map[string]map[string]int),
		pending:     make(map[*grid.Site]int),
		allocated:   make(map[string]int64),
	}
}

// OnEvent lets the planner track in-flight assignments: wire it to the
// executor's OnEvent so queue-pressure estimates see work that has been
// placed but not yet reached a host queue (e.g. while staging).
func (p *Planner) OnEvent(ev executor.Event) {
	switch ev.Kind {
	case "done", "fail", "retry":
		site, ok := p.Cluster.Grid.Site(ev.Result.Site)
		if !ok {
			return
		}
		p.mu.Lock()
		if p.pending[site] > 0 {
			p.pending[site]--
		}
		p.mu.Unlock()
	}
}

// pendingLoad is the planner's own outstanding jobs per core at a site.
func (p *Planner) pendingLoad(s *grid.Site) float64 {
	if p.DisablePendingLoad || len(s.Hosts) == 0 {
		return 0
	}
	p.mu.Lock()
	n := p.pending[s]
	p.mu.Unlock()
	return float64(n) / float64(s.Cores())
}

// resolve reads what placement needs to know of a dataset, in one pass
// over its record and replicas.
//
// size comes from the record, else the first replica that states one,
// else — for an unmaterialized derived output — the estimator's byte
// model of the producing transformation, else DefaultSize. sites are
// those holding a current-epoch replica, sorted.
func (p *Planner) resolve(ds string) (size int64, sites []string) {
	rec, recErr := p.Cat.Dataset(ds)
	for _, r := range p.Cat.ReplicasOf(ds) {
		if size == 0 && r.Size > 0 {
			size = r.Size
		}
		if recErr != nil || r.Epoch != rec.Epoch {
			continue
		}
		i := sort.SearchStrings(sites, r.Site)
		if i == len(sites) || sites[i] != r.Site {
			sites = append(sites, "")
			copy(sites[i+1:], sites[i:])
			sites[i] = r.Site
		}
	}
	if recErr == nil && rec.Size > 0 {
		size = rec.Size
	}
	if size > 0 {
		return size, sites
	}
	size = p.DefaultSize
	if recErr == nil && rec.CreatedBy != "" && p.Est != nil {
		if dv, err := p.Cat.Derivation(rec.CreatedBy); err == nil {
			if _, out := p.Est.Bytes(dv.TR); out > 0 {
				size = int64(out)
			}
		}
	}
	return size, sites
}

// sizeOf estimates a dataset's size.
func (p *Planner) sizeOf(ds string) int64 {
	size, _ := p.resolve(ds)
	return size
}

// replicaSites returns the sites holding a current-epoch replica.
func (p *Planner) replicaSites(ds string) []string {
	_, sites := p.resolve(ds)
	return sites
}

// classWeight scales predicted staging seconds by the weight of the
// path's bandwidth-hierarchy class; unset classes weigh 1.
func (p *Planner) classWeight(t float64, class string) float64 {
	if w, ok := p.LinkClassWeight[class]; ok && w > 0 {
		t *= w
	}
	return t
}

// transferCost predicts staging seconds between sites, weighted by the
// bandwidth-hierarchy class of the path.
func (p *Planner) transferCost(from, to string, bytes int64) (float64, error) {
	t, err := p.Cluster.Grid.TransferTime(from, to, bytes)
	if err != nil {
		return 0, err
	}
	return p.classWeight(t, p.Cluster.Grid.ClassBetween(from, to)), nil
}

// bestSource returns the replica site with the cheapest transfer to
// dst, with its predicted seconds; ok=false if no replica exists.
func (p *Planner) bestSource(ds, dst string) (site string, seconds float64, ok bool) {
	best := math.Inf(1)
	size, sites := p.resolve(ds)
	for _, s := range sites {
		t, err := p.transferCost(s, dst, size)
		if err != nil {
			continue
		}
		if t < best || (t == best && s < site) {
			best, site, ok = t, s, true
		}
	}
	return site, best, ok
}

// homeSites parses the procedure-pinning profile.
func homeSites(tr schema.Transformation) []string {
	raw := tr.Profile[ProfileHomeSites]
	if raw == "" {
		return nil
	}
	var out []string
	for _, s := range strings.Split(raw, ",") {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	return out
}

// installCost parses the provisioning-cost profile. A malformed value
// (trailing garbage, negative, NaN/Inf) means the procedure cannot be
// provisioned elsewhere — the same as an absent profile — rather than
// silently truncating ("5x" used to parse as 5 via Sscanf).
func installCost(tr schema.Transformation) (float64, bool) {
	raw := strings.TrimSpace(tr.Profile[ProfileInstallSeconds])
	if raw == "" {
		return 0, false
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return 0, false
	}
	return v, true
}

func containsStr(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// input is one consumed dataset as a placement decision sees it.
type input struct {
	name string
	size int64
	// sites hold a current-epoch replica, sorted by name. A replica at a
	// site the grid does not know is left out: no candidate can be it
	// or reach it.
	sites []*grid.Site
}

func (in *input) at(s *grid.Site) bool {
	for _, r := range in.sites {
		if r == s {
			return true
		}
	}
	return false
}

// decision is the state of one Assign. Everything that does not depend
// on the candidate site is resolved into it once, before the first site
// is scored: the procedure's parsed profile, its reference work, and
// every input's size and replica sites as grid handles. Scoring a site
// then reads only this and the site's aggregates — O(inputs × replicas)
// with no catalog read, no allocation and no walk over hosts.
type decision struct {
	p       *Planner
	tr      schema.Transformation
	homes   []string
	install float64
	movable bool
	refWork float64
	inputs  []input

	best     *grid.Site
	bestCost float64
	lastErr  error
}

func (p *Planner) newDecision(n *dag.Node, tr schema.Transformation) *decision {
	d := &decision{p: p, tr: tr, homes: homeSites(tr), bestCost: math.Inf(1)}
	d.install, d.movable = installCost(tr)
	d.refWork, _ = p.Est.Work(n.Derivation.TR)
	d.inputs = make([]input, len(n.Inputs))
	for i, name := range n.Inputs {
		in := &d.inputs[i]
		in.name = name
		var sites []string
		in.size, sites = p.resolve(name)
		for _, s := range sites {
			if site, ok := p.Cluster.Grid.Site(s); ok {
				in.sites = append(in.sites, site)
			}
		}
	}
	return d
}

// source returns the replica site of in with the cheapest transfer to
// dst and its predicted seconds; nil if none is reachable.
func (d *decision) source(in *input, dst *grid.Site) (src *grid.Site, seconds float64) {
	p, g := d.p, d.p.Cluster.Grid
	best := math.Inf(1)
	for _, s := range in.sites {
		t, ok := g.SiteTransferTime(s, dst, in.size)
		if !ok {
			continue
		}
		t = p.classWeight(t, s.ClassTo(dst))
		if t < best || (t == best && src != nil && s.Name < src.Name) {
			best, src = t, s
		}
	}
	return src, best
}

// cost estimates completion seconds for running the node at site s:
// queue delay + input staging + procedure provisioning + execution.
func (d *decision) cost(s *grid.Site) (float64, error) {
	if len(s.Hosts) == 0 {
		return 0, fmt.Errorf("planner: site %q has no compute hosts", s.Name)
	}
	// Execution time scales inversely with the site's host speed.
	work := d.refWork / s.MeanSpeed()
	cost := 0.0

	// Queue delay: jobs ahead of us (both in host queues and assigned
	// by this planner but still staging), normalized by capacity.
	cost += (s.Load() + d.p.pendingLoad(s)) * work

	// Input staging.
	for i := range d.inputs {
		in := &d.inputs[i]
		if in.at(s) {
			continue
		}
		src, secs := d.source(in, s)
		if src == nil {
			return 0, fmt.Errorf("planner: no replica of %q reachable from %q", in.name, s.Name)
		}
		cost += secs
	}

	// Procedure provisioning.
	if len(d.homes) > 0 && !containsStr(d.homes, s.Name) {
		if !d.movable {
			return 0, fmt.Errorf("planner: procedure %s unavailable at %q", d.tr.Ref(), s.Name)
		}
		cost += d.install
	}

	cost += work
	return cost, nil
}

// consider scores one candidate and keeps it if it is the cheapest so
// far (ties to the lesser name).
func (d *decision) consider(s *grid.Site) {
	cost, err := d.cost(s)
	if err != nil {
		d.lastErr = err
		return
	}
	if cost < d.bestCost || (cost == d.bestCost && d.best != nil && s.Name < d.best.Name) {
		d.best, d.bestCost = s, cost
	}
}

// considerHomes scores the procedure's home sites, in profile order. A
// home the grid does not know has no hosts to run on.
func (d *decision) considerHomes() {
	for _, h := range d.homes {
		if s, ok := d.p.Cluster.Grid.Site(h); ok {
			d.consider(s)
		} else {
			d.lastErr = fmt.Errorf("planner: site %q has no compute hosts", h)
		}
	}
}

// considerAll scores every site of the grid, in name order.
func (d *decision) considerAll() {
	for _, s := range d.p.Cluster.Grid.SiteList() {
		d.consider(s)
	}
}

// mostInputBytes returns the site holding the most input bytes among
// those the procedure can run at (ties to the lesser name), nil if
// there is none.
func (d *decision) mostInputBytes() *grid.Site {
	var best *grid.Site
	bestBytes := int64(-1)
	for _, s := range d.p.Cluster.Grid.SiteList() {
		if len(d.homes) > 0 && !d.movable && !containsStr(d.homes, s.Name) {
			continue
		}
		var held int64
		for i := range d.inputs {
			if d.inputs[i].at(s) {
				held += d.inputs[i].size
			}
		}
		if held > bestBytes || (held == bestBytes && best != nil && s.Name < best.Name) {
			best, bestBytes = s, held
		}
	}
	return best
}

// transfers lists the staging the winning site needs, in input order.
func (d *decision) transfers() []executor.StageIn {
	var out []executor.StageIn
	for i := range d.inputs {
		in := &d.inputs[i]
		if in.at(d.best) {
			continue
		}
		src, _ := d.source(in, d.best)
		out = append(out, executor.StageIn{Dataset: in.name, FromSite: src.Name, Bytes: in.size})
	}
	return out
}

// Assign implements the executor's placement callback: it is invoked as
// each node becomes ready, so decisions see current queue state and the
// replicas materialized by earlier nodes.
func (p *Planner) Assign(n *dag.Node) (executor.Placement, error) {
	defer metricAssignSeconds.ObserveSince(time.Now())
	tr, err := p.Cat.Transformation(n.Derivation.TR)
	if err != nil {
		metricAssignErrors.Inc()
		return executor.Placement{}, err
	}
	d := p.newDecision(n, tr)
	// The feasible sites under the current mode.
	homesOnly := len(d.homes) > 0 && (p.Mode == ShipDataToProcedure || !d.movable)
	switch {
	case p.Mode == ShipProcedureToData:
		if s := d.mostInputBytes(); s != nil {
			d.consider(s)
		} else {
			d.considerAll()
		}
	case homesOnly:
		d.considerHomes()
	default:
		d.considerAll()
	}
	if math.IsInf(d.bestCost, 1) {
		metricAssignErrors.Inc()
		if d.lastErr != nil {
			return executor.Placement{}, d.lastErr
		}
		return executor.Placement{}, errors.New("planner: no feasible site")
	}
	metricAssignments.Inc()

	outBytes := make(map[string]int64, len(n.Outputs))
	for _, out := range n.Outputs {
		outBytes[out] = p.sizeOf(out)
	}
	// Record accesses and apply the replication policy.
	xfers := d.transfers()
	var waits []func() error
	for _, x := range xfers {
		waits = append(waits, p.noteAccess(x.Dataset, d.best.Name, x.Bytes)...)
	}
	p.mu.Lock()
	p.pending[d.best]++
	p.mu.Unlock()
	return executor.Placement{
		Site:        d.best.Name,
		Work:        d.refWork,
		NoiseAmp:    p.NoiseAmp,
		Transfers:   xfers,
		OutputBytes: outBytes,
		Waits:       waits,
	}, nil
}

// noteAccess bumps the access count for (dataset, site) and applies the
// replication policy, registering any new replicas and issuing their
// background transfers. The replicas are applied to the catalog when it
// returns; the waits it returns block until they are durable, and the
// caller owes them to whoever reports the run as recorded.
func (p *Planner) noteAccess(ds, site string, bytes int64) (waits []func() error) {
	p.mu.Lock()
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
	p.mu.Unlock()
	if p.Replication == nil {
		return nil
	}
	src, _, ok := p.bestSource(ds, site)
	if !ok {
		return nil
	}
	rec, err := p.Cat.Dataset(ds)
	if err != nil {
		return nil
	}
	for _, dst := range p.Replication.OnAccess(ds, bytes, src, site, snapshot) {
		// Read afresh for every destination: the previous one may have
		// just added a replica.
		if containsStr(p.replicaSites(ds), dst) {
			continue
		}
		if !p.reserveStorage(dst, bytes) {
			metricReplicaSkips.Inc()
			continue
		}
		p.mu.Lock()
		p.repSeq++
		seq := p.repSeq
		p.mu.Unlock()
		rep := schema.Replica{
			ID:      fmt.Sprintf("cache-%s-%s-%d", ds, dst, seq),
			Dataset: ds, Site: dst,
			PFN:   fmt.Sprintf("/cache/%s/%s", dst, ds),
			Size:  bytes,
			Epoch: rec.Epoch,
			Attrs: schema.Attributes{"replication": p.Replication.Name()},
		}
		wait, err := p.Cat.AddReplicaAsync(rep)
		if errors.Is(err, catalog.ErrDurability) {
			// An inline or already failed log reports the lost write at
			// once, but like a failed wait it leaves the replica applied
			// in memory: account for it, and hand the error on.
			failed := err
			wait, err = func() error { return failed }, nil
		}
		if err != nil {
			// Not registered: the space was never used.
			p.unreserveStorage(dst, bytes)
			continue
		}
		if wait != nil {
			waits = append(waits, wait)
		}
		p.mu.Lock()
		p.allocated[rep.ID] = bytes
		p.mu.Unlock()
		metricReplicas.Inc()
		metricGridReplicas.Inc()
		if dst != site {
			// Push replicas move bytes in the background; cache-at-
			// client replicas reuse the staging transfer already paid.
			p.Cluster.TransferData(&grid.Transfer{
				ID: rep.ID, From: src, To: dst, Bytes: bytes,
			})
		}
	}
	return waits
}

// reserveStorage allocates bytes for a new replica at a site's storage
// element. When the element is full and EconomyEviction is on, the
// lowest-valued replicas there are reclaimed first. Reports whether
// the reservation succeeded; unknown sites refuse.
func (p *Planner) reserveStorage(site string, bytes int64) bool {
	s, ok := p.Cluster.Grid.Site(site)
	if !ok {
		return false
	}
	if s.Storage == nil {
		return true
	}
	if s.Storage.Alloc(bytes) == nil {
		return true
	}
	if !p.EconomyEviction {
		return false
	}
	if _, err := p.Reclaim(site, bytes-s.Storage.Free()); err != nil {
		return false
	}
	return s.Storage.Alloc(bytes) == nil
}

// unreserveStorage returns a reservation made by reserveStorage that
// never became a tracked replica.
func (p *Planner) unreserveStorage(site string, bytes int64) {
	if s, ok := p.Cluster.Grid.Site(site); ok && s.Storage != nil {
		s.Storage.Release(bytes)
	}
}

// AccessCount reports recorded accesses of a dataset by site.
func (p *Planner) AccessCount(ds string) map[string]int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]int, len(p.accesses[ds]))
	for s, n := range p.accesses[ds] {
		out[s] = n
	}
	return out
}
