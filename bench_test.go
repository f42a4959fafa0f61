package chimera

// One testing.B benchmark per experiment in DESIGN.md's per-experiment
// index. Each benchmark regenerates its experiment's results table (at
// reduced scale so -bench=. stays tractable); cmd/vdg-bench runs the
// full paper-scale sweeps and prints the tables recorded in
// EXPERIMENTS.md.

import (
	"testing"

	"chimera/internal/bench"
)

func runTable(b *testing.B, f func() (bench.Table, error)) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab, err := f()
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkE1HEPPipeline regenerates E1: CMS four-stage pipeline
// provenance capture (§6, Chimera-0 validation).
func BenchmarkE1HEPPipeline(b *testing.B) {
	runTable(b, func() (bench.Table, error) { return bench.E1HEP([]int{10, 100}) })
}

// BenchmarkE2ProvenanceScale regenerates E2: provenance tracking on
// large synthetic dependency graphs (§6, canonical applications).
func BenchmarkE2ProvenanceScale(b *testing.B) {
	runTable(b, func() (bench.Table, error) { return bench.E2ProvenanceScale([]int{100, 1000, 10000}) })
}

// BenchmarkE3SDSSCampaign regenerates E3: the SDSS cluster-finding
// campaign makespan-vs-hosts sweep (§6 / ref [1]).
func BenchmarkE3SDSSCampaign(b *testing.B) {
	runTable(b, func() (bench.Table, error) { return bench.E3SDSS(100, []int{1, 4, 16, 60}) })
}

// BenchmarkE4Reuse regenerates E4: virtual-data reuse under
// overlapping request mixes (§1, §5.2).
func BenchmarkE4Reuse(b *testing.B) {
	runTable(b, func() (bench.Table, error) { return bench.E4Reuse([]float64{0, 0.5, 0.9, 1}) })
}

// BenchmarkE5Replication regenerates E5: the dynamic replication
// strategy ablation (§5.2, refs [18,19]).
func BenchmarkE5Replication(b *testing.B) {
	runTable(b, func() (bench.Table, error) { return bench.E5Replication(100, 20) })
}

// BenchmarkE6Estimator regenerates E6: estimator accuracy vs
// invocation history (§5.3).
func BenchmarkE6Estimator(b *testing.B) {
	runTable(b, func() (bench.Table, error) { return bench.E6Estimator([]int{0, 1, 10, 100, 1000}) })
}

// BenchmarkE7Federation regenerates E7: federated-index discovery and
// cross-catalog lineage (§4.1, Figures 2–4).
func BenchmarkE7Federation(b *testing.B) {
	runTable(b, func() (bench.Table, error) { return bench.E7Federation([]int{2, 8}) })
}

// BenchmarkE8Trust regenerates E8: signature overhead and tamper
// rejection (§4.2).
func BenchmarkE8Trust(b *testing.B) {
	runTable(b, func() (bench.Table, error) { return bench.E8Trust([]int{1000}) })
}

// BenchmarkE9Shipping regenerates E9: the data-vs-procedure shipping
// crossover (§5.2's four patterns).
func BenchmarkE9Shipping(b *testing.B) {
	runTable(b, func() (bench.Table, error) {
		return bench.E9Shipping([]int64{1e6, 100e6, 1e9, 10e9})
	})
}

// BenchmarkE10VDL regenerates E10: VDL round-trip and compound
// expansion throughput (Appendix A).
func BenchmarkE10VDL(b *testing.B) {
	runTable(b, func() (bench.Table, error) { return bench.E10VDL([]int{1000}) })
}

// BenchmarkE17Replication regenerates E17: the dynamic-replication
// shoot-out (none vs popularity vs economy eviction) on the 48-site
// hierarchical testbed (docs/PERF.md, "Grid simulator at scale"). Kept
// small so the -race CI smoke run covers the popularity tracker,
// reclaim economics, and hierarchy-aware placement in seconds.
func BenchmarkE17Replication(b *testing.B) {
	runTable(b, func() (bench.Table, error) {
		return bench.E17DynamicReplication([]int{200}, 2)
	})
}
