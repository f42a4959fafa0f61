package grid

import (
	"fmt"
	"sort"
)

// Host is one compute element: a worker node at a site.
type Host struct {
	// Name is unique across the grid.
	Name string
	// Site is the owning site.
	Site string
	// Speed is the relative CPU speed (1.0 = reference host); a job of
	// W reference-seconds takes W/Speed simulated seconds here.
	Speed float64
	// Cores is the number of jobs the host runs concurrently. Speed and
	// Cores are fixed once the host is added: the site's aggregates
	// count them.
	Cores int

	site    *Site
	busy    int
	queue   []*Job
	running []*Job
	down    bool
}

// Down reports whether the host has been failed.
func (h *Host) Down() bool { return h.down }

// Load returns the host's running plus queued jobs.
func (h *Host) Load() int { return h.busy + len(h.queue) }

// StorageElement is a site's storage system.
type StorageElement struct {
	Site     string
	Capacity int64
	used     int64
}

// Used returns the bytes currently allocated.
func (se *StorageElement) Used() int64 { return se.used }

// Free returns the bytes available.
func (se *StorageElement) Free() int64 { return se.Capacity - se.used }

// Alloc reserves space, failing when the element is full.
func (se *StorageElement) Alloc(bytes int64) error {
	if bytes < 0 {
		return fmt.Errorf("grid: negative allocation")
	}
	if se.used+bytes > se.Capacity {
		return fmt.Errorf("grid: storage at %s full (%d used, %d requested, %d capacity)",
			se.Site, se.used, bytes, se.Capacity)
	}
	se.used += bytes
	return nil
}

// Release frees previously allocated space. Releasing more than is
// allocated is an accounting bug (typically a double release): the
// usage is clamped to zero so the element stays serviceable, but the
// underflow is counted and returned as an error instead of being
// silently absorbed — silent clamping let double-releases corrupt
// capacity accounting invisibly.
func (se *StorageElement) Release(bytes int64) error {
	if bytes < 0 {
		return fmt.Errorf("grid: negative release at %s (%d bytes)", se.Site, bytes)
	}
	se.used -= bytes
	if se.used < 0 {
		over := -se.used
		se.used = 0
		metricReleaseUnderflow.Inc()
		return fmt.Errorf("grid: storage at %s released %d bytes more than allocated (double release?)",
			se.Site, over)
	}
	return nil
}

// Site groups hosts and a storage element.
//
// Beside the host list a site carries aggregates over it, so that a
// planner reads a site's capacity and load in O(1) however many hosts
// it has. Invariants, after every Grid and Cluster call: cores and
// speedSum cover every host (speedSum added in insertion order, so the
// mean is the float a walk of Hosts gives); upCores, busy and queued
// cover the hosts that are up. AddHost, Cluster.Submit, job completion,
// FailHost and RepairHost are the only writers.
type Site struct {
	Name    string
	Hosts   []*Host
	Storage *StorageElement

	index    int     // insertion order in the grid; keys links
	links    []*Link // by peer index; nil where no link exists
	cores    int
	upCores  int
	speedSum float64
	busy     int // occupied cores
	queued   int // jobs waiting for a core
}

// Cores returns the site's total cores, failed hosts included.
func (s *Site) Cores() int { return s.cores }

// UpCores returns the cores of the hosts in service; zero means the
// site cannot run a job.
func (s *Site) UpCores() int { return s.upCores }

// MeanSpeed averages the host speeds at the site (1.0 for no hosts).
func (s *Site) MeanSpeed() float64 {
	if len(s.Hosts) == 0 {
		return 1
	}
	return s.speedSum / float64(len(s.Hosts))
}

// Load returns running+queued jobs divided by cores over the hosts in
// service, a dimensionless congestion measure for planners: 0 for a
// site without hosts, 1e9 (effectively unusable) for one whose hosts
// are all down.
func (s *Site) Load() float64 {
	if len(s.Hosts) == 0 {
		return 0
	}
	if s.upCores == 0 {
		return 1e9
	}
	return float64(s.busy+s.queued) / float64(s.upCores)
}

// LinkTo returns the WAN link to another site of the same grid, nil if
// there is none (or peer is s itself).
func (s *Site) LinkTo(peer *Site) *Link {
	if peer.index < len(s.links) {
		return s.links[peer.index]
	}
	return nil
}

func (s *Site) setLink(peer *Site, l *Link) {
	if n := peer.index + 1 - len(s.links); n > 0 {
		s.links = append(s.links, make([]*Link, n)...)
	}
	s.links[peer.index] = l
}

// Link classes of the bandwidth hierarchy: intra-site LAN moves are
// implicit (no Link object), links within a region are "regional", and
// links crossing regions are "transatlantic". Planners may weight
// staging costs by class to keep traffic low in the hierarchy.
const (
	ClassLocal         = "local"
	ClassRegional      = "regional"
	ClassTransatlantic = "transatlantic"
)

// Link models the WAN path between two sites.
type Link struct {
	From, To string
	// Bandwidth in bytes per simulated second, shared among Streams
	// parallel channels.
	Bandwidth float64
	// LatencySec is the per-transfer startup latency in seconds.
	LatencySec float64
	// Streams is the number of concurrent transfers served at full
	// per-stream rate; additional transfers queue. Default 4.
	Streams int
	// Class labels the link's tier in the bandwidth hierarchy
	// (ClassRegional/ClassTransatlantic); empty for flat topologies.
	Class string

	active  int
	waiting []*Transfer
}

func (l *Link) streamBandwidth() float64 {
	streams := l.Streams
	if streams <= 0 {
		streams = 4
	}
	return l.Bandwidth / float64(streams)
}

// Grid is the static topology plus dynamic host/link state.
type Grid struct {
	sites map[string]*Site
	hosts map[string]*Host
	// sorted lists the sites by name. AddSite replaces it with a new
	// slice, so one a caller holds never changes.
	sorted []*Site
	// LocalBandwidth is the intra-site (LAN) transfer rate in bytes per
	// second; intra-site transfers have no latency or stream limit.
	LocalBandwidth float64
}

// NewGrid returns an empty topology with a 1 GB/s LAN.
func NewGrid() *Grid {
	return &Grid{
		sites:          make(map[string]*Site),
		hosts:          make(map[string]*Host),
		LocalBandwidth: 1e9,
	}
}

// AddSite creates a site with the given storage capacity.
func (g *Grid) AddSite(name string, storageCapacity int64) (*Site, error) {
	if name == "" {
		return nil, fmt.Errorf("grid: empty site name")
	}
	if _, ok := g.sites[name]; ok {
		return nil, fmt.Errorf("grid: site %q already exists", name)
	}
	s := &Site{Name: name, Storage: &StorageElement{Site: name, Capacity: storageCapacity}, index: len(g.sites)}
	g.sites[name] = s
	at := sort.Search(len(g.sorted), func(i int) bool { return g.sorted[i].Name >= name })
	sorted := make([]*Site, len(g.sorted)+1)
	copy(sorted, g.sorted[:at])
	sorted[at] = s
	copy(sorted[at+1:], g.sorted[at:])
	g.sorted = sorted
	return s, nil
}

// AddHost adds a worker node to an existing site.
func (g *Grid) AddHost(site, name string, speed float64, cores int) (*Host, error) {
	s, ok := g.sites[site]
	if !ok {
		return nil, fmt.Errorf("grid: unknown site %q", site)
	}
	if _, ok := g.hosts[name]; ok {
		return nil, fmt.Errorf("grid: host %q already exists", name)
	}
	if err := checkPositive("host speed", speed); err != nil {
		return nil, err
	}
	if cores <= 0 {
		cores = 1
	}
	h := &Host{Name: name, Site: site, Speed: speed, Cores: cores, site: s}
	s.Hosts = append(s.Hosts, h)
	s.cores += cores
	s.upCores += cores
	s.speedSum += speed
	g.hosts[name] = h
	return h, nil
}

// AddHosts adds n uniform hosts named prefix-0..n-1.
func (g *Grid) AddHosts(site, prefix string, n int, speed float64, cores int) error {
	for i := 0; i < n; i++ {
		if _, err := g.AddHost(site, fmt.Sprintf("%s-%d", prefix, i), speed, cores); err != nil {
			return err
		}
	}
	return nil
}

// Connect installs a bidirectional WAN link between two sites.
func (g *Grid) Connect(a, b string, bandwidth, latencySec float64, streams int) error {
	return g.ConnectClass(a, b, "", bandwidth, latencySec, streams)
}

// ConnectClass installs a bidirectional WAN link carrying a bandwidth-
// hierarchy class label (ClassRegional, ClassTransatlantic).
func (g *Grid) ConnectClass(a, b, class string, bandwidth, latencySec float64, streams int) error {
	sa, ok := g.sites[a]
	if !ok {
		return fmt.Errorf("grid: unknown site %q", a)
	}
	sb, ok := g.sites[b]
	if !ok {
		return fmt.Errorf("grid: unknown site %q", b)
	}
	if a == b {
		return fmt.Errorf("grid: cannot link site %q to itself", a)
	}
	if err := checkPositive("link bandwidth", bandwidth); err != nil {
		return err
	}
	l := &Link{From: a, To: b, Bandwidth: bandwidth, LatencySec: latencySec, Streams: streams, Class: class}
	sa.setLink(sb, l)
	sb.setLink(sa, l)
	return nil
}

// ClassBetween reports the bandwidth-hierarchy class of the path
// between two sites: ClassLocal for same-site moves, the link's class
// for connected sites (empty-class links report ClassRegional as the
// flat-mesh default), and "" when no path exists.
func (g *Grid) ClassBetween(a, b string) string {
	if a == b {
		return ClassLocal
	}
	l, ok := g.Link(a, b)
	if !ok {
		return ""
	}
	return l.class()
}

// ClassTo is ClassBetween for two sites of one grid already in hand.
func (s *Site) ClassTo(peer *Site) string {
	if s == peer {
		return ClassLocal
	}
	l := s.LinkTo(peer)
	if l == nil {
		return ""
	}
	return l.class()
}

func (l *Link) class() string {
	if l.Class == "" {
		return ClassRegional
	}
	return l.Class
}

// Site returns a site by name.
func (g *Grid) Site(name string) (*Site, bool) {
	s, ok := g.sites[name]
	return s, ok
}

// Host returns a host by name.
func (g *Grid) Host(name string) (*Host, bool) {
	h, ok := g.hosts[name]
	return h, ok
}

// Link returns the link between two sites (order-insensitive).
func (g *Grid) Link(a, b string) (*Link, bool) {
	sa, sb := g.sites[a], g.sites[b]
	if sa == nil || sb == nil {
		return nil, false
	}
	l := sa.LinkTo(sb)
	return l, l != nil
}

// SiteList returns the sites sorted by name. The slice is shared
// between callers and must not be modified.
func (g *Grid) SiteList() []*Site { return g.sorted }

// Sites returns site names, sorted.
func (g *Grid) Sites() []string {
	out := make([]string, len(g.sorted))
	for i, s := range g.sorted {
		out[i] = s.Name
	}
	return out
}

// HostNames returns all host names at a site, sorted.
func (g *Grid) HostNames(site string) []string {
	s, ok := g.sites[site]
	if !ok {
		return nil
	}
	out := make([]string, 0, len(s.Hosts))
	for _, h := range s.Hosts {
		out = append(out, h.Name)
	}
	sort.Strings(out)
	return out
}

// TotalHosts returns the number of hosts in the grid.
func (g *Grid) TotalHosts() int { return len(g.hosts) }

// QueueDepth returns the number of queued (not yet running) jobs at a
// site across all hosts.
func (g *Grid) QueueDepth(site string) int {
	s, ok := g.sites[site]
	if !ok {
		return 0
	}
	return s.queued
}

// BusyCores returns the number of occupied cores at a site.
func (g *Grid) BusyCores(site string) int {
	s, ok := g.sites[site]
	if !ok {
		return 0
	}
	return s.busy
}

// FreeCores returns the number of idle cores at a site.
func (g *Grid) FreeCores(site string) int {
	s, ok := g.sites[site]
	if !ok {
		return 0
	}
	return s.upCores - s.busy
}

// TransferTime predicts the unloaded duration of moving bytes between
// sites (zero for same-site moves over an infinitely parallel LAN is
// wrong; LAN time is bytes/LocalBandwidth).
func (g *Grid) TransferTime(from, to string, bytes int64) (float64, error) {
	if from == to {
		return float64(bytes) / g.LocalBandwidth, nil
	}
	l, ok := g.Link(from, to)
	if !ok {
		return 0, fmt.Errorf("grid: no link between %q and %q", from, to)
	}
	return l.LatencySec + float64(bytes)/l.streamBandwidth(), nil
}

// SiteTransferTime is TransferTime for two sites of this grid already
// in hand; ok is false when no link joins them.
func (g *Grid) SiteTransferTime(from, to *Site, bytes int64) (secs float64, ok bool) {
	if from == to {
		return float64(bytes) / g.LocalBandwidth, true
	}
	l := from.LinkTo(to)
	if l == nil {
		return 0, false
	}
	return l.LatencySec + float64(bytes)/l.streamBandwidth(), true
}
