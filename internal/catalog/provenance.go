package catalog

import (
	"fmt"
	"sort"
	"strings"

	"chimera/internal/schema"
)

// Provenance navigation. The provenance graph is bipartite: dataset
// nodes alternate with derivation nodes. Upward (ancestor) edges run
// from a dataset to its producing derivation and from a derivation to
// its input datasets; downward (descendant) edges are the inverses.
//
// Every entry point walks a View (view.go): one snapshot under the
// catalog's read lock.

// Producer returns the derivation registered as producing the dataset,
// or ErrNotFound for primary data.
func (c *Catalog) Producer(dataset string) (schema.Derivation, error) {
	v := c.View()
	defer v.Close()
	id, ok := v.c.producerOf[dataset]
	if !ok {
		return schema.Derivation{}, fmt.Errorf("%w: no producer for dataset %q", ErrNotFound, dataset)
	}
	return v.c.derivations[id], nil
}

// DerivationIO returns the input and output dataset names of a
// registered derivation.
func (c *Catalog) DerivationIO(id string) (inputs, outputs []string, err error) {
	v := c.View()
	defer v.Close()
	if _, ok := v.c.derivations[id]; !ok {
		return nil, nil, fmt.Errorf("%w: derivation %q", ErrNotFound, id)
	}
	return append([]string(nil), v.c.inputsOf[id]...), append([]string(nil), v.c.outputsOf[id]...), nil
}

// Closure identifies a set of datasets and derivations reached by a
// provenance traversal.
type Closure struct {
	// Datasets reached, sorted.
	Datasets []string
	// Derivations reached (IDs), sorted.
	Derivations []string
}

// Ancestors computes the upward provenance closure of a dataset: every
// derivation and dataset its content (transitively) depends on. The
// starting dataset itself is not included.
func (c *Catalog) Ancestors(dataset string) (Closure, error) {
	v := c.View()
	defer v.Close()
	return v.ancestors(dataset)
}

func (v *View) ancestors(dataset string) (Closure, error) {
	if _, ok := v.c.datasets[dataset]; !ok {
		return Closure{}, fmt.Errorf("%w: dataset %q", ErrNotFound, dataset)
	}
	seenDS := make(map[string]bool)
	seenDV := make(map[string]bool)
	var walk func(ds string)
	walk = func(ds string) {
		dvID, ok := v.c.producerOf[ds]
		if !ok || seenDV[dvID] {
			return
		}
		seenDV[dvID] = true
		for _, in := range v.c.inputsOf[dvID] {
			if !seenDS[in] {
				seenDS[in] = true
				walk(in)
			}
		}
	}
	walk(dataset)
	return closureOf(seenDS, seenDV), nil
}

// Descendants computes the downward closure of a dataset: every
// derivation that (transitively) consumed it and every dataset those
// derivations produce. The starting dataset itself is not included.
func (c *Catalog) Descendants(dataset string) (Closure, error) {
	v := c.View()
	defer v.Close()
	return v.descendants(dataset)
}

func (v *View) descendants(dataset string) (Closure, error) {
	if _, ok := v.c.datasets[dataset]; !ok {
		return Closure{}, fmt.Errorf("%w: dataset %q", ErrNotFound, dataset)
	}
	seenDS := make(map[string]bool)
	seenDV := make(map[string]bool)
	var walk func(ds string)
	walk = func(ds string) {
		for _, dvID := range v.c.consumersOf[ds] {
			if seenDV[dvID] {
				continue
			}
			seenDV[dvID] = true
			for _, out := range v.c.outputsOf[dvID] {
				if !seenDS[out] {
					seenDS[out] = true
					walk(out)
				}
			}
		}
	}
	walk(dataset)
	return closureOf(seenDS, seenDV), nil
}

func closureOf(ds, dv map[string]bool) Closure {
	cl := Closure{
		Datasets:    make([]string, 0, len(ds)),
		Derivations: make([]string, 0, len(dv)),
	}
	for k := range ds {
		cl.Datasets = append(cl.Datasets, k)
	}
	for k := range dv {
		cl.Derivations = append(cl.Derivations, k)
	}
	sort.Strings(cl.Datasets)
	sort.Strings(cl.Derivations)
	return cl
}

// Invalidate answers the paper's audit-trail question "I've detected a
// calibration error in an instrument and want to know which derived
// data to recompute": given a (primary or derived) dataset now known to
// be bad, it returns the derived datasets downstream of it, i.e. the
// recomputation set, together with the derivations to re-run.
func (c *Catalog) Invalidate(dataset string) (Closure, error) {
	return c.Descendants(dataset)
}

// LineageStep is one level of a lineage report: a derivation, the
// transformation it specializes, its input datasets, and the
// invocations recorded for it.
type LineageStep struct {
	Derivation  schema.Derivation
	TR          string
	Inputs      []string
	Outputs     []string
	Invocations []schema.Invocation
	// Depth is the distance (in derivation steps) from the queried
	// dataset: 1 for the producing derivation, 2 for producers of its
	// inputs, and so on.
	Depth int
}

// LineageReport is the complete audit trail of a dataset: how it was
// produced from primary data, derivation by derivation, nearest first.
type LineageReport struct {
	Dataset string
	// Primary reports whether the dataset has no recorded producer.
	Primary bool
	Steps   []LineageStep
	// PrimarySources are the underived datasets at the roots.
	PrimarySources []string
}

// DOT renders the lineage report as a GraphViz digraph: datasets as
// ellipses, derivations as boxes labelled with their transformation,
// edges following the dataflow (inputs → derivation → outputs).
func (r LineageReport) DOT() string {
	var b strings.Builder
	b.WriteString("digraph lineage {\n  rankdir=BT;\n")
	fmt.Fprintf(&b, "  %q [shape=ellipse, style=bold];\n", r.Dataset)
	seenDS := map[string]bool{r.Dataset: true}
	for _, step := range r.Steps {
		fmt.Fprintf(&b, "  %q [shape=box, label=%q];\n", step.Derivation.ID, step.TR)
		for _, out := range step.Outputs {
			if !seenDS[out] {
				seenDS[out] = true
				fmt.Fprintf(&b, "  %q [shape=ellipse];\n", out)
			}
			fmt.Fprintf(&b, "  %q -> %q;\n", step.Derivation.ID, out)
		}
		for _, in := range step.Inputs {
			if !seenDS[in] {
				seenDS[in] = true
				fmt.Fprintf(&b, "  %q [shape=ellipse];\n", in)
			}
			fmt.Fprintf(&b, "  %q -> %q;\n", in, step.Derivation.ID)
		}
	}
	for _, p := range r.PrimarySources {
		fmt.Fprintf(&b, "  %q [shape=ellipse, style=dashed];\n", p)
	}
	b.WriteString("}\n")
	return b.String()
}

// Lineage produces the dataset's full audit trail. Steps appear in
// breadth-first order from the dataset; each derivation appears once at
// its minimum depth.
func (c *Catalog) Lineage(dataset string) (LineageReport, error) {
	v := c.View()
	defer v.Close()
	if _, ok := v.c.datasets[dataset]; !ok {
		return LineageReport{}, fmt.Errorf("%w: dataset %q", ErrNotFound, dataset)
	}
	rep := LineageReport{Dataset: dataset}
	if _, ok := v.c.producerOf[dataset]; !ok {
		rep.Primary = true
		rep.PrimarySources = []string{dataset}
		return rep, nil
	}
	type qe struct {
		ds    string
		depth int
	}
	queue := []qe{{dataset, 0}}
	seenDV := make(map[string]bool)
	seenDS := map[string]bool{dataset: true}
	primaries := make(map[string]bool)
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		dvID, ok := v.c.producerOf[cur.ds]
		if !ok {
			primaries[cur.ds] = true
			continue
		}
		if seenDV[dvID] {
			continue
		}
		seenDV[dvID] = true
		dv := v.c.derivations[dvID]
		step := LineageStep{
			Derivation: dv,
			TR:         dv.TR,
			Inputs:     append([]string(nil), v.c.inputsOf[dvID]...),
			Outputs:    append([]string(nil), v.c.outputsOf[dvID]...),
			Depth:      cur.depth + 1,
		}
		for _, ivID := range v.c.invocationsByDV[dvID] {
			step.Invocations = append(step.Invocations, v.c.invocations[ivID])
		}
		rep.Steps = append(rep.Steps, step)
		for _, in := range v.c.inputsOf[dvID] {
			if !seenDS[in] {
				seenDS[in] = true
				queue = append(queue, qe{in, cur.depth + 1})
			}
		}
	}
	for p := range primaries {
		rep.PrimarySources = append(rep.PrimarySources, p)
	}
	sort.Strings(rep.PrimarySources)
	return rep, nil
}

// MaterializationPlan returns the derivations that must run, in
// dependency (topological) order, to materialize the target dataset,
// given the predicate that reports which datasets are already
// materialized (nil means (*View).Materialized). Materialized datasets
// prune the traversal: their ancestors need not run. A dataset that is
// unmaterialized, underived and not primary input data is an error.
//
// The predicate runs while the plan holds v, so it must read the catalog
// through v only — a locked Catalog method would deadlock against a
// writer waiting for v (see Catalog.View).
func (c *Catalog) MaterializationPlan(target string, materialized func(v *View, dataset string) bool) ([]schema.Derivation, error) {
	v := c.View()
	defer v.Close()
	if _, ok := v.c.datasets[target]; !ok {
		return nil, fmt.Errorf("%w: dataset %q", ErrNotFound, target)
	}
	if materialized == nil {
		materialized = (*View).Materialized
	}
	var order []schema.Derivation
	visiting := make(map[string]bool) // derivation IDs on the stack
	done := make(map[string]bool)     // derivation IDs emitted
	var need func(ds string, forWhom string) error
	need = func(ds string, forWhom string) error {
		if materialized(v, ds) {
			return nil
		}
		dvID, ok := v.c.producerOf[ds]
		if !ok {
			return fmt.Errorf("%w: dataset %q is needed%s but is neither materialized nor derivable", ErrNotFound, ds, forWhom)
		}
		if done[dvID] {
			return nil
		}
		if visiting[dvID] {
			return fmt.Errorf("%w: derivation cycle at dataset %q", ErrConflict, ds)
		}
		visiting[dvID] = true
		for _, in := range v.c.inputsOf[dvID] {
			if err := need(in, fmt.Sprintf(" by derivation %s", dvID)); err != nil {
				return err
			}
		}
		visiting[dvID] = false
		done[dvID] = true
		order = append(order, v.c.derivations[dvID])
		return nil
	}
	if err := need(target, ""); err != nil {
		return nil, err
	}
	return order, nil
}
