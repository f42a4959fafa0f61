// Package core assembles the virtual data system: one facade over the
// six facets of the paper's process flow (Figure 5) — composition,
// planning, estimation, derivation, discovery and sharing — wired over
// the catalog, estimator, planner, executor and grid substrates.
//
// It is the one request path: plan a materialization (Plan), estimate
// it from recorded history (Estimate, §5.3), derive it and record the
// invocations (Materialize, §5.4). The estimator learns each run once:
// NewWithCatalog folds the history a catalog holds, and Materialize
// folds the attempts of its own run. The chimera command line's plan,
// estimate and run are a thin shell over this loop.
//
// A System runs in one of two modes. Simulated mode executes workflows
// on the discrete-event grid — the configuration used by the experiment
// harness; invocations are stamped from the Unix epoch, so runs stay
// deterministic. Local mode executes workflows as registered Go
// functions (or, with the driver's ExecFallback, real processes) on the
// local machine against real files, stamping invocations with wall-clock
// time — the configuration used by the interactive examples and chimera.
package core

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"chimera/internal/catalog"
	"chimera/internal/dag"
	"chimera/internal/dtype"
	"chimera/internal/estimator"
	"chimera/internal/executor"
	"chimera/internal/grid"
	"chimera/internal/obs"
	"chimera/internal/planner"
	"chimera/internal/query"
	"chimera/internal/schema"
	"chimera/internal/vdl"
	"chimera/internal/vds"
)

// System is a fully wired virtual data system.
type System struct {
	// Name identifies the system's catalog when shared.
	Name string
	// Cat is the underlying virtual data catalog.
	Cat *catalog.Catalog
	// Est is the cost estimator, fed each recorded invocation once.
	Est *estimator.Estimator

	// Cluster and Planner are set in simulated mode.
	Cluster *grid.Cluster
	Planner *planner.Planner

	// Local is set in local mode.
	Local *executor.LocalDriver

	// MaxRetries configures workflow execution.
	MaxRetries int
}

// NewSimulated wires a system over a simulated grid.
func NewSimulated(name string, g *grid.Grid, seed int64, types *dtype.Registry) *System {
	cat := catalog.New(types)
	est := estimator.New(60)
	cl := grid.NewCluster(g, grid.NewSim(seed))
	return &System{
		Name:    name,
		Cat:     cat,
		Est:     est,
		Cluster: cl,
		Planner: planner.New(cat, est, cl),
	}
}

// NewLocal wires a system that executes transformations as registered
// Go functions in the given workspace directory.
func NewLocal(name, workspace string, types *dtype.Registry) *System {
	return NewWithCatalog(name, workspace, catalog.New(types))
}

// NewWithCatalog wraps an existing catalog (e.g. a durable one opened
// with catalog.Open) in local mode. The estimator starts from the
// invocations the catalog has recorded.
func NewWithCatalog(name, workspace string, cat *catalog.Catalog) *System {
	est := estimator.New(60)
	if err := est.LoadCatalog(cat); err != nil {
		// The catalog refuses an invocation citing an unknown derivation,
		// so only a damaged log gets here: estimates then rest on the
		// invocations folded before the one named.
		obs.Logger("core").Warn("estimator history incomplete", "err", err)
	}
	drv := executor.NewLocalDriver(workspace)
	drv.Resolve = cat.Resolver()
	return &System{Name: name, Cat: cat, Est: est, Local: drv}
}

// --- Composition -------------------------------------------------------

// LoadVDL composes definitions from VDL source text, one strict batch
// through the program loader (vds.ApplyProgram).
func (s *System) LoadVDL(src string) error {
	prog, err := vdl.Parse(src)
	if err == nil {
		_, err = vds.ApplyProgram(s.Cat, prog)
	}
	return err
}

// Define registers a derivation as a one-derivation program: a compound
// one is stored as its simple leaves (with Parent linkage), all or none.
// It returns the leaves as the catalog holds them, shared and
// read-only; a leaf registered before is reused, not an error.
func (s *System) Define(dv schema.Derivation) ([]schema.Derivation, error) {
	leaves, err := vds.ApplyProgram(s.Cat, vdl.Program{Derivations: []schema.Derivation{dv}})
	for i := range leaves {
		leaves[i], _ = s.Cat.Derivation(leaves[i].ID) // stored: the batch held it
	}
	return leaves, err
}

// --- Discovery ---------------------------------------------------------

// SearchDatasets runs a discovery query over datasets.
func (s *System) SearchDatasets(q string) ([]schema.Dataset, error) {
	res, err := query.Search(s.Cat, query.KDataset, q)
	return res.Datasets, err
}

// SearchTransformations runs a discovery query over transformations.
func (s *System) SearchTransformations(q string) ([]schema.Transformation, error) {
	res, err := query.Search(s.Cat, query.KTransformation, q)
	return res.Transformations, err
}

// SearchDerivations runs a discovery query over derivations.
func (s *System) SearchDerivations(q string) ([]schema.Derivation, error) {
	res, err := query.Search(s.Cat, query.KDerivation, q)
	return res.Derivations, err
}

// --- Provenance --------------------------------------------------------

// Lineage returns the full audit trail of a dataset.
func (s *System) Lineage(dataset string) (catalog.LineageReport, error) {
	return s.Cat.Lineage(dataset)
}

// Invalidate answers "which derived data must be recomputed if this
// dataset is bad?".
func (s *System) Invalidate(dataset string) (catalog.Closure, error) {
	return s.Cat.Invalidate(dataset)
}

// MarkUpdated records that a dataset's contents were corrected in
// place (§8's update-in-place): the epoch bumps and its existing
// replicas are re-stamped as current. Downstream data is now stale —
// follow with Recompute.
func (s *System) MarkUpdated(dataset string) (int, error) {
	return s.Cat.BumpEpoch(dataset, true)
}

// Recompute repairs the consequences of a bad or updated dataset: every
// derived dataset downstream of it has its epoch bumped (staling its
// replicas) and is re-materialized by re-running the recorded
// derivations — the paper's calibration-error scenario closed end to
// end.
func (s *System) Recompute(bad string) ([]MaterializeResult, error) {
	cl, err := s.Cat.Invalidate(bad)
	if err != nil {
		return nil, err
	}
	for _, ds := range cl.Datasets {
		if _, err := s.Cat.BumpEpoch(ds, false); err != nil {
			return nil, err
		}
	}
	if len(cl.Datasets) == 0 {
		return nil, nil
	}
	return s.Materialize(cl.Datasets...)
}

// --- Planning and estimation --------------------------------------------

// Plan lists the derivations that must run, in dependency order, to
// materialize target; none when it is materialized already.
func (s *System) Plan(target string) ([]schema.Derivation, error) {
	return s.Cat.MaterializationPlan(target, stageable)
}

// stageable is the planning rule: a dataset is available when it is
// materialized, or when it is primary data, which can be staged even
// with no replica registered — in local mode the workspace holds it (the
// driver fails loudly if not), and an estimate asks "what would deriving
// this cost?", not "can it run right now?".
func stageable(v *catalog.View, ds string) bool {
	if v.Materialized(ds) {
		return true
	}
	rec, ok := v.Dataset(ds)
	return ok && rec.CreatedBy == ""
}

// Estimate predicts the cost of materializing a target on the given
// number of hosts (defaulting to the grid's size in simulated mode, 1
// locally).
func (s *System) Estimate(target string, hosts int) (estimator.Estimate, error) {
	dvs, err := s.Plan(target)
	if err != nil {
		return estimator.Estimate{}, err
	}
	g, err := dag.Build(dvs, s.Cat.Resolver())
	if err != nil {
		return estimator.Estimate{}, err
	}
	if hosts <= 0 {
		hosts = 1
		if s.Cluster != nil {
			hosts = s.Cluster.Grid.TotalHosts()
		}
	}
	return s.Est.EstimateGraph(g, hosts, nil), nil
}

// --- Derivation --------------------------------------------------------

// MaterializeResult reports how a request was satisfied.
type MaterializeResult struct {
	Target string
	// Reused is true when no computation ran (already materialized).
	Reused bool
	// Report is the workflow execution report when work ran.
	Report executor.Report
}

// Materialize satisfies requests for the given targets: already
// materialized targets are reused; the rest are derived by running the
// combined workflow. Invocations are recorded in the catalog, and each
// attempt of the run is folded into the estimator.
func (s *System) Materialize(targets ...string) ([]MaterializeResult, error) {
	return s.MaterializeContext(context.Background(), targets...)
}

// MaterializeContext is Materialize under a caller context: when the
// context carries a tracer (obs.WithTracer), the run records one span
// per attempt on the driver's timeline under a workflow root, beside
// the executor's wall-clock spans.
func (s *System) MaterializeContext(ctx context.Context, targets ...string) ([]MaterializeResult, error) {
	// In simulated mode only a replica can be staged to a site.
	rule := stageable
	if s.Local == nil {
		rule = nil
	}
	results := make([]MaterializeResult, len(targets))
	var pending []schema.Derivation
	seen := make(map[string]bool)
	for i, t := range targets {
		results[i].Target = t
		if s.Cat.Materialized(t) {
			results[i].Reused = true
			continue
		}
		dvs, err := s.Cat.MaterializationPlan(t, rule)
		if err != nil {
			return nil, err
		}
		if len(dvs) == 0 {
			results[i].Reused = true
			continue
		}
		for _, dv := range dvs {
			if !seen[dv.ID] {
				seen[dv.ID] = true
				pending = append(pending, dv)
			}
		}
	}
	if len(pending) == 0 {
		return results, nil
	}
	g, err := dag.Build(pending, s.Cat.Resolver())
	if err != nil {
		return nil, err
	}
	rep, err := s.runGraph(ctx, g)
	if err != nil {
		return nil, err
	}
	for _, r := range rep.Results {
		n, _ := g.Node(r.Node)
		s.Est.Observe(n.Derivation.TR, r.End-r.Start, r.BytesIn, r.BytesOut, r.ExitCode == 0)
	}
	for i := range results {
		if !results[i].Reused {
			results[i].Report = rep
		}
	}
	if !rep.Succeeded() {
		return results, fmt.Errorf("core: workflow incomplete: %d failed, %d blocked", rep.Failed, rep.Blocked)
	}
	return results, nil
}

// runGraph executes a workflow graph in the system's mode.
func (s *System) runGraph(ctx context.Context, g *dag.Graph) (executor.Report, error) {
	ex := &executor.Executor{
		Catalog:    s.Cat,
		MaxRetries: s.MaxRetries,
		Trace:      obs.TracerFrom(ctx),
	}
	switch {
	case s.Local != nil:
		ex.Driver = s.Local
		ex.Assign = func(*dag.Node) (executor.Placement, error) { return executor.Placement{Site: "local"}, nil }
		// The driver's clock counts seconds since it was made: that
		// moment stamps its attempts in wall-clock time.
		ex.Epoch = time.Now().UTC().Add(-time.Duration(s.Local.Now() * float64(time.Second)))
	case s.Cluster != nil:
		ex.Driver = executor.NewSimDriver(s.Cluster)
		ex.Assign = s.Planner.Assign
		ex.OnEvent = s.Planner.OnEvent
	default:
		return executor.Report{}, errors.New("core: system has neither local driver nor cluster")
	}
	return ex.RunContext(ctx, g)
}

// Register installs a local implementation for a transformation name
// (local mode only).
func (s *System) Register(name string, fn executor.TransformFunc) error {
	if s.Local == nil {
		return errors.New("core: Register requires local mode")
	}
	s.Local.Register(name, fn)
	return nil
}

// --- Sharing -----------------------------------------------------------

// Handler exposes the system's catalog as a virtual data service for
// other participants to hyperlink against.
func (s *System) Handler() http.Handler {
	return vds.NewServer(s.Name, s.Cat)
}

// ImportTransformation pulls a remote transformation (and, for
// compounds, its callees) into this system's catalog.
func (s *System) ImportTransformation(reg *vds.Registry, ref string) (schema.Transformation, error) {
	return vds.ImportTransformation(s.Cat, reg, ref)
}
