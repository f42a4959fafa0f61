package grid

import (
	"fmt"
)

// Job is one unit of computation submitted to a host, GRAM-style.
type Job struct {
	// ID identifies the job in traces.
	ID string
	// Failed is set by the cluster when the job's host failed while it
	// was running or queued; drivers read it in OnDone.
	Failed bool
	// Work is the job's cost in reference-CPU seconds.
	Work float64
	// NoiseAmp is the amplitude of multiplicative runtime jitter
	// (0 = deterministic).
	NoiseAmp float64
	// OnDone is invoked (in simulated time) when the job completes,
	// with its start time and elapsed duration.
	OnDone func(start, elapsed float64)

	host *Host
}

// Cluster couples a Grid with a Sim: it executes jobs on hosts and
// transfers on links in simulated time.
type Cluster struct {
	Grid *Grid
	Sim  *Sim

	// Completed counts finished jobs.
	Completed int
	// TransferredBytes accumulates WAN (inter-site) traffic.
	TransferredBytes int64
	// LocalBytes accumulates intra-site traffic.
	LocalBytes int64
	// BusyTime accumulates host-seconds of computation.
	BusyTime float64
}

// NewCluster binds a topology to a simulator.
func NewCluster(g *Grid, s *Sim) *Cluster { return &Cluster{Grid: g, Sim: s} }

// Submit queues a job on the named host; it starts as soon as a core is
// free, FIFO.
func (c *Cluster) Submit(host string, job *Job) error {
	h, ok := c.Grid.Host(host)
	if !ok {
		return fmt.Errorf("grid: unknown host %q", host)
	}
	if job.Work < 0 {
		return fmt.Errorf("grid: job %q has negative work", job.ID)
	}
	if h.down {
		return fmt.Errorf("grid: host %q is down", host)
	}
	job.host = h
	if h.busy < h.Cores {
		c.start(job)
	} else {
		h.queue = append(h.queue, job)
		h.site.queued++
	}
	return nil
}

func (c *Cluster) start(job *Job) {
	h := job.host
	h.busy++
	h.site.busy++
	h.running = append(h.running, job)
	start := c.Sim.Now()
	elapsed := job.Work / h.Speed * c.Sim.Noise(job.NoiseAmp)
	c.Sim.After(elapsed, func() {
		if h.down || job.Failed {
			// The host failed mid-run; FailHost already reported this
			// job as failed, so the stale completion event is dropped.
			return
		}
		h.busy--
		h.site.busy--
		removeJob(&h.running, job)
		c.Completed++
		c.BusyTime += elapsed
		if len(h.queue) > 0 {
			next := h.queue[0]
			h.queue = h.queue[:copy(h.queue, h.queue[1:])]
			h.site.queued--
			c.start(next)
		}
		if job.OnDone != nil {
			job.OnDone(start, elapsed)
		}
	})
}

func removeJob(jobs *[]*Job, job *Job) {
	for i, j := range *jobs {
		if j == job {
			*jobs = append((*jobs)[:i:i], (*jobs)[i+1:]...)
			return
		}
	}
}

// FailHost takes a host out of service, GRAM-style lost-contact
// semantics: running and queued jobs fail immediately (their OnDone
// fires with Job.Failed set), and no new submissions are accepted until
// RepairHost.
func (c *Cluster) FailHost(name string) error {
	h, ok := c.Grid.Host(name)
	if !ok {
		return fmt.Errorf("grid: unknown host %q", name)
	}
	if h.down {
		return nil
	}
	h.down = true
	h.site.upCores -= h.Cores
	h.site.busy -= h.busy
	h.site.queued -= len(h.queue)
	victims := append(append([]*Job{}, h.running...), h.queue...)
	h.running = nil
	h.queue = nil
	h.busy = 0
	now := c.Sim.Now()
	for _, job := range victims {
		job := job
		job.Failed = true
		c.Sim.After(0, func() {
			if job.OnDone != nil {
				job.OnDone(now, 0)
			}
		})
	}
	return nil
}

// RepairHost returns a failed host to service (empty, idle).
func (c *Cluster) RepairHost(name string) error {
	h, ok := c.Grid.Host(name)
	if !ok {
		return fmt.Errorf("grid: unknown host %q", name)
	}
	if h.down {
		h.down = false
		h.site.upCores += h.Cores
	}
	return nil
}

// Transfer is one data movement between sites.
type Transfer struct {
	ID     string
	From   string
	To     string
	Bytes  int64
	OnDone func(start, elapsed float64)
}

// TransferData schedules a transfer. Intra-site moves use the LAN
// directly; inter-site moves occupy one stream of the WAN link, queuing
// when all streams are busy. Storage accounting is the caller's
// responsibility (the planner allocates; the cluster just moves bytes).
func (c *Cluster) TransferData(t *Transfer) error {
	if t.Bytes < 0 {
		return fmt.Errorf("grid: transfer %q has negative size", t.ID)
	}
	if t.From == t.To {
		elapsed := float64(t.Bytes) / c.Grid.LocalBandwidth
		start := c.Sim.Now()
		c.Sim.After(elapsed, func() {
			c.LocalBytes += t.Bytes
			if t.OnDone != nil {
				t.OnDone(start, elapsed)
			}
		})
		return nil
	}
	l, ok := c.Grid.Link(t.From, t.To)
	if !ok {
		return fmt.Errorf("grid: no link between %q and %q", t.From, t.To)
	}
	c.enqueueTransfer(l, t)
	return nil
}

func (c *Cluster) enqueueTransfer(l *Link, t *Transfer) {
	streams := l.Streams
	if streams <= 0 {
		streams = 4
	}
	if l.active < streams {
		c.startTransfer(l, t)
	} else {
		l.waiting = append(l.waiting, t)
	}
}

func (c *Cluster) startTransfer(l *Link, t *Transfer) {
	l.active++
	start := c.Sim.Now()
	elapsed := l.LatencySec + float64(t.Bytes)/l.streamBandwidth()
	c.Sim.After(elapsed, func() {
		l.active--
		c.TransferredBytes += t.Bytes
		if len(l.waiting) > 0 {
			next := l.waiting[0]
			l.waiting = l.waiting[:copy(l.waiting, l.waiting[1:])]
			c.startTransfer(l, next)
		}
		if t.OnDone != nil {
			t.OnDone(start, elapsed)
		}
	})
}

// LeastLoadedHost returns the host at the site with the fewest queued
// plus running jobs (ties broken by name for determinism), or "" if the
// site has no hosts.
func (c *Cluster) LeastLoadedHost(site string) string {
	s, ok := c.Grid.Site(site)
	if !ok {
		return ""
	}
	best := ""
	bestLoad := 1 << 30
	for _, h := range s.Hosts {
		if h.down {
			continue
		}
		load := h.Load()
		if load < bestLoad || (load == bestLoad && h.Name < best) {
			best, bestLoad = h.Name, load
		}
	}
	return best
}

// SiteLoad returns running+queued jobs divided by cores at a site, a
// dimensionless congestion measure for planners.
func (c *Cluster) SiteLoad(site string) float64 {
	s, ok := c.Grid.Site(site)
	if !ok {
		return 0
	}
	return s.Load()
}

// FourSiteTestbed builds a topology shaped like the paper's SDSS
// testbed: four sites with the given hosts each, fully meshed WAN.
// Host counts of {400, 200, 120, 80} total ≈800 hosts.
func FourSiteTestbed(hostCounts [4]int) (*Grid, error) {
	g := NewGrid()
	names := [4]string{"uchicago", "anl", "fnal", "wisconsin"}
	for i, n := range names {
		if _, err := g.AddSite(n, 100e12); err != nil {
			return nil, err
		}
		if err := g.AddHosts(n, n, hostCounts[i], 1.0, 1); err != nil {
			return nil, err
		}
	}
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			// 2002-era WAN: ~30 MB/s, 50 ms startup, 4 streams.
			if err := g.Connect(names[i], names[j], 30e6, 0.05, 4); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}
