// Command benchmark is the repository's one end-to-end benchmark: it
// builds ./cmd/vdcd, starts it as a real process on a real directory
// with real fsync, drives it over loopback TCP through vds.Client, and
// reports what a user of the system would see, per workload, with a
// per-layer cost breakdown underneath. See README.md beside this file.
//
//	go run ./benchmark                      all six workloads, traced
//	go run ./benchmark -workload collab_mix -seed 7 -seconds 10 -trace 0
//	go run ./benchmark -smoke               all six, 1 s windows, small bases
//	go run ./benchmark -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"chimera/internal/obs"
)

// defaultSeconds is the measured window of every closed loop, and the
// run_seconds of BENCHMARK.json.
const defaultSeconds = 10

type workloadDef struct {
	name string
	why  string
	run  func(*config) (*workloadResult, error)
}

func serverDef(spec *serverWorkload) workloadDef {
	return workloadDef{name: spec.name, why: spec.why, run: func(cfg *config) (*workloadResult, error) {
		return runServerWorkload(cfg, spec)
	}}
}

// workloads in the order a full run executes them. Names are fixed:
// later issues cite them.
var workloads = []workloadDef{
	serverDef(analystHot()),
	serverDef(discoverWide()),
	serverDef(ingestDurable()),
	serverDef(collabMix()),
	{name: wlFederationSync, why: federationSyncWhy, run: runFederationSync},
	{name: wlWorkflowRun, why: workflowRunWhy, run: runWorkflow},
}

// resultFile is the environment-stamped artifact -out writes and
// -compare reads.
type resultFile struct {
	Environment environment       `json:"environment"`
	Seed        int64             `json:"seed"`
	WindowS     float64           `json:"window_s"`
	WarmupS     float64           `json:"warmup_s"`
	Smoke       bool              `json:"smoke,omitempty"`
	Workloads   []*workloadResult `json:"workloads"`
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload = flag.String("workload", "all", "workload to run, or \"all\"")
		seed     = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds  = flag.Int("seconds", defaultSeconds, "measured window of each closed loop, in seconds")
		traceArg = flag.String("trace", "", "0: end-to-end metrics only; 1: add the traced replay and per-layer metrics; any other value: as 1, and write the spans to that file (Chrome trace-event JSON). Default: 1 for a full run, 0 with -workload")
		out      = flag.String("out", "", "write the environment-stamped JSON result to this file")
		smoke    = flag.Bool("smoke", false, "1 s windows and 200-chain bases: a functional check, not a measurement")
		compare  = flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare old.json new.json")
			return 2
		}
		return runCompare(flag.Arg(0), flag.Arg(1), os.Stdout)
	}

	selected := workloads
	if *workload != "all" {
		selected = nil
		for _, w := range workloads {
			if w.name == *workload {
				selected = []workloadDef{w}
			}
		}
		if selected == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
			return 2
		}
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be at least 1")
		return 2
	}

	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	work, err := newWorkDir(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(work)
	bin, err := buildServer(root, work)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	cfg := newConfig(work, bin, *seed, *seconds, *smoke)
	traceOut := ""
	switch *traceArg {
	case "":
		cfg.trace = *workload == "all"
	case "0":
	case "1":
		cfg.trace = true
	default:
		cfg.trace = true
		traceOut = *traceArg
	}
	if cfg.trace {
		cfg.tracer = obs.NewTracer()
	}

	file := resultFile{Environment: stampEnvironment(root), Seed: cfg.seed,
		WindowS: cfg.window.Seconds(), WarmupS: cfg.warm.Seconds(), Smoke: *smoke}
	status := 0
	for _, w := range selected {
		res, err := w.run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		file.Workloads = append(file.Workloads, res)
		printResult(res, cfg.trace)
		if !res.Correct {
			status = 1
		}
	}
	if traceOut != "" {
		if err := cfg.tracer.WriteChromeTraceFile(traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: -trace: %v\n", err)
			return 1
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(file, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: -out: %v\n", err)
			return 1
		}
	}
	return status
}

func newConfig(work, bin string, seed int64, seconds int, smoke bool) *config {
	cfg := &config{
		work: work, bin: bin, seed: seed,
		window: time.Duration(seconds) * time.Second, warm: time.Second,
		clients:       runtime.NumCPU(),
		analystChains: 2000, wideChains: 10000,
		tracedOps: 4000, setupRepeats: 3, setupRepeatsSmall: 5, openLoopFor: 6 * time.Second,
	}
	if smoke {
		cfg.window, cfg.warm = time.Second, 200*time.Millisecond
		cfg.analystChains, cfg.wideChains = 200, 200
		cfg.tracedOps, cfg.setupRepeats, cfg.setupRepeatsSmall, cfg.openLoopFor = 300, 1, 1, time.Second
		cfg.smoke = true
	}
	return cfg
}

// printResult prints every metric as `workload metric value unit [n=samples]`,
// any failed checks, and last the one-line JSON object the driver
// reads: the end-to-end metrics of BENCHMARK.json for an untraced run,
// its per-layer metrics for a traced one.
func printResult(res *workloadResult, traced bool) {
	for _, name := range res.sortedMetricNames() {
		m := res.Metrics[name]
		if m.N > 0 {
			fmt.Printf("%s %s %.6g %s n=%d\n", res.Workload, name, m.Value, m.Unit, m.N)
		} else {
			fmt.Printf("%s %s %.6g %s\n", res.Workload, name, m.Value, m.Unit)
		}
	}
	for _, e := range res.Errors {
		fmt.Printf("%s CHECK FAILED: %s\n", res.Workload, e)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for _, d := range metricDefs {
		if d.gate == traced {
			continue
		}
		// A layer a workload does not exercise did no work there: 0.
		line.Metrics[d.name] = value{res.Metrics[d.name].Value, d.unit}
	}
	data, _ := json.Marshal(line)
	fmt.Println(string(data))
}
