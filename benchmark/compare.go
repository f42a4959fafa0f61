package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdicts of -compare, per workload and metric.
const (
	verdictBetter     = "better"
	verdictWithin     = "within bound"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
	// verdictMissing: the baseline has the value and the new file does
	// not. A result that dropped a workload or a metric must not pass.
	verdictMissing = "missing"
)

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// judge applies a metric's bound to a baseline and a new value.
// Positive change means worse. A baseline that lacks the value, or
// holds 0 under a relative bound, cannot be judged.
func judge(d *metricDef, base, next metric, haveBase, haveNext bool) (verdict string, change float64) {
	if !haveBase {
		return verdictUnresolved, 0
	}
	if !haveNext {
		return verdictMissing, 0
	}
	worse := next.Value - base.Value
	if d.better == "higher" {
		worse = -worse
	}
	if d.abs > 0 {
		switch {
		case worse > d.abs:
			return verdictWorse, worse
		case worse < 0:
			return verdictBetter, worse
		}
		return verdictWithin, worse
	}
	if base.Value == 0 {
		return verdictUnresolved, 0
	}
	change = worse / base.Value
	switch {
	case change > d.bound:
		return verdictWorse, change
	case change < -d.bound:
		return verdictBetter, change
	}
	return verdictWithin, change
}

// runCompare judges every bounded metric of every workload present in
// the baseline, prints one line each, and returns 1 if any is worse or
// missing from the new file, or if the two files were not measured
// alike (the simulated metrics are exact per seed, and the load is sized
// from nproc), else 0.
func runCompare(basePath, nextPath string, w io.Writer) int {
	base, err := readResultFile(basePath)
	if err != nil {
		fmt.Fprintln(w, "benchmark: -compare:", err)
		return 2
	}
	next, err := readResultFile(nextPath)
	if err != nil {
		fmt.Fprintln(w, "benchmark: -compare:", err)
		return 2
	}
	for _, f := range []struct {
		role, path string
		file       *resultFile
	}{{"baseline", basePath, base}, {"new", nextPath, next}} {
		env := f.file.Environment
		fmt.Fprintf(w, "%-8s %s: commit %s, %s, GOMAXPROCS %d, nproc %d, kernel %s, seed %d, window %gs\n", f.role, f.path,
			env.Commit, env.GoVersion, env.GOMAXPROCS, env.NProc, env.Kernel, f.file.Seed, f.file.WindowS)
	}
	status := 0
	if base.Seed != next.Seed || base.WindowS != next.WindowS || base.Smoke != next.Smoke ||
		base.Environment.GOMAXPROCS != next.Environment.GOMAXPROCS || base.Environment.NProc != next.Environment.NProc {
		fmt.Fprintln(w, "the two files were measured with different seeds, windows, sizes, GOMAXPROCS or nproc: not comparable")
		status = 1
	}
	byName := map[string]*workloadResult{}
	for _, r := range next.Workloads {
		byName[r.Workload] = r
	}
	counts := map[string]int{}
	for _, b := range base.Workloads {
		n := byName[b.Workload]
		for i := range metricDefs {
			d := &metricDefs[i]
			if (d.bound == 0 && d.abs == 0) || !d.judgedOn(b.Workload) {
				continue
			}
			var nm metric
			var haveNext bool
			if n != nil {
				nm, haveNext = n.Metrics[d.name]
			}
			bm, haveBase := b.Metrics[d.name]
			verdict, change := judge(d, bm, nm, haveBase, haveNext)
			counts[verdict]++
			allowed := fmt.Sprintf("%.0f%%", 100*d.bound)
			moved := fmt.Sprintf("%+.1f%%", 100*change)
			if d.abs > 0 {
				allowed = fmt.Sprintf("%g", d.abs)
				moved = fmt.Sprintf("%+g", change)
			}
			fmt.Fprintf(w, "%-16s %-24s %12.6g -> %12.6g %-6s %8s worse (allowed %s)  %s\n",
				b.Workload, d.name, bm.Value, nm.Value, d.unit, moved, allowed, verdict)
		}
	}
	fmt.Fprintf(w, "%d better, %d within bound, %d worse, %d missing, %d unresolved\n",
		counts[verdictBetter], counts[verdictWithin], counts[verdictWorse], counts[verdictMissing], counts[verdictUnresolved])
	if counts[verdictWorse] > 0 || counts[verdictMissing] > 0 {
		status = 1
	}
	return status
}
