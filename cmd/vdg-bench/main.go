// Command vdg-bench runs the experiment harness at paper scale and
// prints one results table per experiment (E1–E10, E17, A1–A2 in
// DESIGN.md). The tables reproduce the shapes of the paper's evaluation
// claims; the recorded outputs live in EXPERIMENTS.md.
//
// Usage:
//
//	vdg-bench [-run E3] [-scale small|paper] [-markdown] [-trace out.json]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"chimera/internal/bench"
	"chimera/internal/obs"
)

type experiment struct {
	id    string
	small func() (bench.Table, error)
	paper func() (bench.Table, error)
}

func experiments() []experiment {
	return []experiment{
		{"E1",
			func() (bench.Table, error) { return bench.E1HEP([]int{10, 100}) },
			func() (bench.Table, error) { return bench.E1HEP([]int{10, 100, 1000}) }},
		{"E2",
			func() (bench.Table, error) { return bench.E2ProvenanceScale([]int{100, 1000, 10000}) },
			func() (bench.Table, error) { return bench.E2ProvenanceScale([]int{100, 1000, 10000, 100000}) }},
		{"E3",
			func() (bench.Table, error) { return bench.E3SDSS(100, []int{1, 4, 16, 60}) },
			func() (bench.Table, error) { return bench.E3SDSS(1200, []int{1, 2, 5, 10, 30, 60, 120}) }},
		{"E4",
			func() (bench.Table, error) { return bench.E4Reuse([]float64{0, 0.5, 1}) },
			func() (bench.Table, error) { return bench.E4Reuse([]float64{0, 0.25, 0.5, 0.75, 0.9, 1}) }},
		{"E5",
			func() (bench.Table, error) { return bench.E5Replication(100, 20) },
			func() (bench.Table, error) { return bench.E5Replication(500, 50) }},
		{"E6",
			func() (bench.Table, error) { return bench.E6Estimator([]int{0, 10, 100}) },
			func() (bench.Table, error) { return bench.E6Estimator([]int{0, 1, 10, 100, 1000}) }},
		{"E7",
			func() (bench.Table, error) { return bench.E7Federation([]int{2, 4, 8}) },
			func() (bench.Table, error) { return bench.E7Federation([]int{2, 4, 8, 16, 32, 64}) }},
		{"E8",
			func() (bench.Table, error) { return bench.E8Trust([]int{1000}) },
			func() (bench.Table, error) { return bench.E8Trust([]int{1000, 10000, 50000}) }},
		{"E9",
			func() (bench.Table, error) { return bench.E9Shipping([]int64{1e6, 100e6, 10e9}) },
			func() (bench.Table, error) {
				return bench.E9Shipping([]int64{1e6, 10e6, 100e6, 1e9, 3e9, 10e9, 100e9})
			}},
		{"E10",
			func() (bench.Table, error) { return bench.E10VDL([]int{100, 1000}) },
			func() (bench.Table, error) { return bench.E10VDL([]int{100, 1000, 10000}) }},
		{"E17",
			func() (bench.Table, error) { return bench.E17DynamicReplication([]int{200, 1000}, 2) },
			func() (bench.Table, error) { return bench.E17DynamicReplication([]int{1000, 10000}, 2) }},
		{"A1",
			func() (bench.Table, error) { return bench.A1IndexVsScan([]int{500, 2000}) },
			func() (bench.Table, error) { return bench.A1IndexVsScan([]int{500, 2000, 10000}) }},
		{"A2",
			func() (bench.Table, error) { return bench.A2PendingLoad(100, 16) },
			func() (bench.Table, error) { return bench.A2PendingLoad(600, 60) }},
	}
}

func main() {
	run := flag.String("run", "all", "experiment to run (E1..E10, E17, A1, A2, or all)")
	scale := flag.String("scale", "paper", "parameter scale: small or paper")
	markdown := flag.Bool("markdown", false, "emit GitHub-flavored markdown")
	tracePath := flag.String("trace", "", "write a Chrome trace with one span per experiment")
	flag.Parse()

	var tracer *obs.Tracer
	if *tracePath != "" {
		tracer = obs.NewTracer()
	}
	ctx := obs.WithTracer(context.Background(), tracer)

	any := false
	for _, ex := range experiments() {
		if *run != "all" && !strings.EqualFold(*run, ex.id) {
			continue
		}
		any = true
		f := ex.paper
		if *scale == "small" {
			f = ex.small
		}
		start := time.Now()
		_, span := obs.StartSpan(ctx, ex.id)
		span.SetAttr("scale", *scale)
		tab, err := f()
		span.End()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", ex.id, err)
			os.Exit(1)
		}
		if *markdown {
			fmt.Println(tab.Markdown())
		} else {
			fmt.Println(tab.String())
		}
		fmt.Printf("(%s completed in %v)\n\n", ex.id, time.Since(start).Round(time.Millisecond))
		// CI consumes E17's headline numbers as an artifact.
		if ex.id == "E17" {
			name := "BENCH_" + ex.id + ".json"
			data, err := json.MarshalIndent(tab, "", "  ")
			if err == nil {
				err = os.WriteFile(name, append(data, '\n'), 0o644)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "write %s: %v\n", name, err)
				os.Exit(1)
			}
			fmt.Println("wrote " + name)
		}
	}
	if !any {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *run)
		os.Exit(2)
	}
	if tracer != nil {
		if err := tracer.WriteChromeTraceFile(*tracePath); err != nil {
			fmt.Fprintf(os.Stderr, "write trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote trace to %s\n", *tracePath)
	}
}
