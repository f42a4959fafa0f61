package executor

import (
	"fmt"

	"chimera/internal/dag"
	"chimera/internal/grid"
)

// SimDriver executes placements on the simulated grid: input transfers
// run first (concurrently), then the job runs on the placed host, all
// in virtual time. Failures are injected with a configurable
// probability drawn from the simulation's seeded source, so runs remain
// reproducible.
type SimDriver struct {
	Cluster *grid.Cluster
	// FailProb is the per-attempt probability of job failure (exit 1).
	FailProb float64
}

// NewSimDriver wraps a cluster.
func NewSimDriver(c *grid.Cluster) *SimDriver { return &SimDriver{Cluster: c} }

// Now returns the simulated time.
func (d *SimDriver) Now() float64 { return d.Cluster.Sim.Now() }

// Drain runs the simulation to quiescence.
func (d *SimDriver) Drain() { d.Cluster.Sim.Run() }

// Start implements Driver.
func (d *SimDriver) Start(n *dag.Node, p Placement, attempt int, done func(Result)) error {
	site := p.Site
	if p.Host != "" {
		h, ok := d.Cluster.Grid.Host(p.Host)
		if !ok {
			return fmt.Errorf("executor: unknown host %q", p.Host)
		}
		site = h.Site
	} else if s, ok := d.Cluster.Grid.Site(site); !ok || s.UpCores() == 0 {
		// Unknown, empty or all down; launch picks the host.
		return fmt.Errorf("executor: site %q has no hosts", site)
	}
	var totalIn int64
	for _, t := range p.Transfers {
		totalIn += t.Bytes
	}
	var totalOut int64
	for _, b := range p.OutputBytes {
		totalOut += b
	}
	dispatchTime := d.Now()

	launch := func() {
		// Pick the host when the job is actually ready to queue (after
		// staging), so queue depths reflect every job launched so far.
		host := p.Host
		if host == "" {
			host = d.Cluster.LeastLoadedHost(site)
		}
		var job *grid.Job
		job = &grid.Job{
			ID:       fmt.Sprintf("%s#%d", n.ID, attempt),
			Work:     p.Work,
			NoiseAmp: p.NoiseAmp,
			OnDone: func(start, elapsed float64) {
				exit := 0
				if job.Failed {
					exit = 1 // host failure (grid.FailHost)
				} else if d.FailProb > 0 && d.Cluster.Sim.Rand().Float64() < d.FailProb {
					exit = 1
				}
				done(Result{
					Node: n.ID, Attempt: attempt, ExitCode: exit,
					Site: site, Host: host,
					Start: dispatchTime, End: start + elapsed,
					BytesIn: totalIn, BytesOut: totalOut,
				})
			},
		}
		if err := d.Cluster.Submit(host, job); err != nil {
			// Surface as a failed attempt rather than panicking the sim.
			done(Result{Node: n.ID, Attempt: attempt, ExitCode: 1, Site: site, Host: host,
				Start: dispatchTime, End: d.Now()})
		}
	}

	if len(p.Transfers) == 0 {
		launch()
		return nil
	}
	remaining := len(p.Transfers)
	for _, t := range p.Transfers {
		t := t
		err := d.Cluster.TransferData(&grid.Transfer{
			ID:    fmt.Sprintf("xfer-%s-%s", n.ID, t.Dataset),
			From:  t.FromSite,
			To:    site,
			Bytes: t.Bytes,
			OnDone: func(_, _ float64) {
				remaining--
				if remaining == 0 {
					launch()
				}
			},
		})
		if err != nil {
			return fmt.Errorf("executor: stage %s for %s: %w", t.Dataset, n.ID, err)
		}
	}
	return nil
}
