package planner

import (
	"fmt"
	"math"

	"chimera/internal/dag"
	"chimera/internal/schema"
)

// Decision is the reuse-vs-recompute outcome for one request.
type Decision int

const (
	// Reuse: the product exists at the requesting site; no work needed.
	Reuse Decision = iota
	// Retrieve: the product exists elsewhere; transfer it.
	Retrieve
	// Derive: the product must be (re)computed.
	Derive
)

// String names the decision.
func (d Decision) String() string {
	switch d {
	case Reuse:
		return "reuse"
	case Retrieve:
		return "retrieve"
	default:
		return "derive"
	}
}

// Plan is the materialization plan for one requested dataset.
type Plan struct {
	Target   string
	Decision Decision
	// Source is the replica site chosen for Retrieve.
	Source string
	// Derivations lists, in dependency order, the work for Derive.
	Derivations []schema.Derivation
	// Graph is the workflow DAG for Derive (nil otherwise).
	Graph *dag.Graph
	// EstimatedSeconds predicts the cost of executing the plan at the
	// requested site (0 for Reuse).
	EstimatedSeconds float64
}

// PlanRequest decides how to satisfy a request for dataset target at
// site atSite, implementing the paper's "determine whether a requested
// computation has been performed previously, and whether it is cheaper
// to rerun it or to retrieve previously generated data".
func (p *Planner) PlanRequest(target, atSite string) (Plan, error) {
	plan := Plan{Target: target}
	if _, err := p.Cat.Dataset(target); err != nil {
		return Plan{}, err
	}

	// Cost of retrieving an existing replica, if any.
	retrieveCost := math.Inf(1)
	var source string
	if p.Cat.Materialized(target) {
		if containsStr(p.replicaSites(target), atSite) {
			plan.Decision = Reuse
			return plan, nil
		}
		if s, secs, ok := p.bestSource(target, atSite); ok {
			source, retrieveCost = s, secs
		}
	}

	// Cost of deriving.
	deriveCost := math.Inf(1)
	dvs, derr := p.Cat.MaterializationPlan(target, nil)
	if derr == nil && len(dvs) == 0 {
		// The target is already materialized somewhere; there is
		// nothing to derive, so retrieval is the only live option.
		derr = fmt.Errorf("planner: %q already materialized; nothing to derive", target)
	}
	var g *dag.Graph
	if derr == nil {
		var err error
		g, err = dag.Build(dvs, p.Cat.Resolver())
		if err != nil {
			return Plan{}, err
		}
		// Staging seconds per external input, looked up once per request:
		// nodes share inputs.
		staging := make(map[string]float64)
		est := p.Est.EstimateGraph(g, p.Cluster.Grid.TotalHosts(), func(n *dag.Node) float64 {
			// External inputs may need staging; internal edges are
			// assumed co-located by the placement policy.
			secs := 0.0
			for _, in := range n.Inputs {
				if _, ok := g.Producer(in); ok {
					continue
				}
				t, known := staging[in]
				if !known {
					if _, best, ok := p.bestSource(in, atSite); ok {
						t = best
					}
					staging[in] = t
				}
				secs += t
			}
			return secs
		})
		deriveCost = est.Makespan
	}

	switch {
	case math.IsInf(retrieveCost, 1) && math.IsInf(deriveCost, 1):
		if derr != nil {
			return Plan{}, fmt.Errorf("planner: cannot satisfy request for %q: %w", target, derr)
		}
		return Plan{}, fmt.Errorf("planner: cannot satisfy request for %q", target)
	case retrieveCost <= deriveCost:
		plan.Decision = Retrieve
		plan.Source = source
		plan.EstimatedSeconds = retrieveCost
	default:
		plan.Decision = Derive
		plan.Derivations = dvs
		plan.Graph = g
		plan.EstimatedSeconds = deriveCost
	}
	return plan, nil
}
