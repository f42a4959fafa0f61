// hepsim reproduces the paper's first application study (§6): the CMS
// high-energy-physics event simulation chain — four program stages with
// intermediate and final results passing between them as files — run as
// a campaign on a simulated Grid site, with the virtual data catalog
// capturing complete provenance and the estimator answering "how long
// would more runs take?".
package main

import (
	"fmt"
	"log"
	"slices"
	"strings"

	"chimera/internal/core"
	"chimera/internal/grid"
	"chimera/internal/schema"
	"chimera/internal/workload"
)

func main() {
	// One site with 32 worker nodes.
	g := grid.NewGrid()
	if _, err := g.AddSite("tier1", 1e15); err != nil {
		log.Fatal(err)
	}
	if err := g.AddHosts("tier1", "wn", 32, 1.0, 1); err != nil {
		log.Fatal(err)
	}
	sys := core.NewSimulated("cms-prod", g, 42, nil)

	// Compose the campaign: 50 runs of the four-stage pipeline with a
	// final histogram merge.
	w := workload.CMS(workload.CMSParams{Runs: 50, EventsPerRun: 500, Merge: true})
	if err := w.Install(sys.Cat); err != nil {
		log.Fatal(err)
	}
	w.SeedEstimator(sys.Est, 3)
	fmt.Printf("composed %d derivations over %d transformations\n",
		len(w.Derivations), len(w.Transformations))

	// Estimate before running (§5.3: "can it be computed in the time
	// the user is willing to wait?").
	est, err := sys.Estimate("histograms", 32)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("estimate on 32 hosts: makespan %.0fs (total work %.0fs, critical path %.0fs)\n",
		est.Makespan, est.TotalWork, est.CriticalPath)

	// Derive.
	results, err := sys.Materialize("histograms")
	if err != nil {
		log.Fatal(err)
	}
	rep := results[0].Report
	fmt.Printf("executed %d jobs, simulated makespan %.0fs\n", rep.Completed, rep.Makespan)

	// Provenance: every point in the final histogram traces to its
	// generator runs.
	lin, err := sys.Lineage("histograms")
	if err != nil {
		log.Fatal(err)
	}
	stageCount := map[string]int{}
	var stages []string
	for _, step := range lin.Steps {
		if stageCount[step.TR] == 0 {
			stages = append(stages, step.TR)
		}
		stageCount[step.TR]++
	}
	slices.Sort(stages)
	fmt.Println("lineage of histograms by stage:")
	for _, tr := range stages {
		fmt.Printf("  %-14s %d derivations\n", tr, stageCount[tr])
	}
	fmt.Printf("primary roots: %d (pure generators)\n", len(lin.PrimarySources))

	// Discovery over provenance: which derivations consumed run 7's
	// simulated events?
	hits, err := sys.SearchDerivations(`consumes(fz.run7)`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nderivations consuming fz.run7: %d (%s)\n", len(hits), hits[0].TR)

	// The calibration-error question: generator run 7 was misconfigured.
	cl, err := sys.Invalidate("kin.run7")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bad kin.run7 invalidates %d downstream datasets: %s ...\n",
		len(cl.Datasets), strings.Join(cl.Datasets[:3], ", "))

	// Define one replacement run and materialize only what is missing.
	fix := schema.Derivation{TR: "cms::cmkin", Params: map[string]schema.Actual{
		"out":     schema.DatasetActual("output", "kin.run7.fixed"),
		"run":     schema.StringActual("7-fixed"),
		"nevents": schema.StringActual("500"),
	}}
	if _, err := sys.Define(fix); err != nil {
		log.Fatal(err)
	}
	res, err := sys.Materialize("kin.run7.fixed")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replacement run executed %d job(s); catalog now holds %d invocations\n",
		res[0].Report.Completed, sys.Cat.Stats().Invocations)
}
