package workload

import (
	"fmt"
	"math/rand"

	"chimera/internal/query"
	"chimera/internal/schema"
)

// AnalystStorm models the concurrent-analyst access pattern of a
// CAVES-style virtual data collaboration (§2.3, §6): a shared catalog
// holds tagged derivation chains — each chain one analyst's published
// analysis, tagged so colleagues can find it — and N analysts hammer it
// with a read-dominated mix of discovery queries, new tagged
// definitions, and re-derivations of popular results. Popularity is
// Zipf-distributed: a few hot analyses absorb most of the traffic,
// which is exactly the regime where repeated identical queries (the
// plan/result cache) and repeated identical derivation requests (the
// executor's dedup fast path) pay off.
//
// The generator is deterministic in Seed: the same configuration always
// yields the same base catalog and the same per-analyst scripts, so two
// runs replay identical work.
type AnalystStorm struct {
	// Analysts is the number of concurrent analyst scripts.
	Analysts int
	// Chains is the number of pre-installed tagged derivation chains.
	Chains int
	// Depth is the number of stages per chain.
	Depth int
	// Ops is the script length per analyst.
	Ops int
	// Skew is the Zipf skew over chain popularity (> 1).
	Skew float64
	// Seed drives all randomness.
	Seed int64
}

// analystTagGroups spreads chains over this many distinct tags, so a
// tag query selects ~Chains/analystTagGroups datasets.
const analystTagGroups = 16

// withDefaults fills zero fields with a small but non-degenerate
// configuration.
func (s AnalystStorm) withDefaults() AnalystStorm {
	if s.Analysts <= 0 {
		s.Analysts = 16
	}
	if s.Chains <= 0 {
		s.Chains = 200
	}
	if s.Depth <= 0 {
		s.Depth = 3
	}
	if s.Ops <= 0 {
		s.Ops = 100
	}
	if s.Skew <= 1 {
		s.Skew = 1.3
	}
	if s.Seed == 0 {
		s.Seed = 18
	}
	return s
}

// OpKind classifies one analyst operation.
type OpKind int

const (
	// OpDiscover runs a catalog query (the dominant operation).
	OpDiscover OpKind = iota
	// OpDefine registers a new tagged dataset.
	OpDefine
	// OpDerive requests a derivation of a popular chain's result. The
	// request is deterministic per chain, so concurrent analysts asking
	// for the same summary submit byte-identical derivations — the
	// catalog collapses them to one, and the executor's dedup fast path
	// skips re-running ones that already executed.
	OpDerive
)

// AnalystOp is one step of an analyst script. Exactly the fields for
// its Kind are populated.
type AnalystOp struct {
	Kind OpKind
	// Discover: the query source and the kind it runs against.
	Query     string
	QueryKind query.Kind
	// Define: the dataset to register.
	Dataset schema.Dataset
	// Derive: the derivation to request.
	Derivation schema.Derivation
}

func analystChainTag(c int) string { return fmt.Sprintf("tag%02d", c%analystTagGroups) }
func analystRaw(c int) string      { return fmt.Sprintf("caves.raw.%04d", c) }
func analystStage(j, c int) string { return fmt.Sprintf("caves.s%d.%04d", j, c) }
func analystSummary(c int) string  { return fmt.Sprintf("caves.summary.%04d", c) }
func (s AnalystStorm) last(c int) string {
	return analystStage(s.Depth-1, c)
}

// Base returns the shared pre-storm catalog content: Chains tagged
// derivation chains of Depth stages each, plus the summarize
// transformation the derive ops use.
func (s AnalystStorm) Base() Workload {
	s = s.withDefaults()
	w := Workload{
		Name:     fmt.Sprintf("analyst-storm-%d", s.Chains),
		Work:     map[string]float64{},
		OutBytes: map[string]int64{},
	}
	for j := 0; j < s.Depth; j++ {
		tr := simpleTR("caves", fmt.Sprintf("stage%d", j), fmt.Sprintf("/cms/caves/stage%d", j),
			[]string{"out"}, []string{"in"}, nil)
		w.Transformations = append(w.Transformations, tr)
		w.Work[tr.Ref()] = 30 * float64(j+1)
		w.OutBytes[tr.Ref()] = 200e6
	}
	sum := simpleTR("caves", "summarize", "/cms/caves/summarize",
		[]string{"out"}, []string{"in"}, nil)
	w.Transformations = append(w.Transformations, sum)
	w.Work[sum.Ref()] = 15
	w.OutBytes[sum.Ref()] = 10e6

	for c := 0; c < s.Chains; c++ {
		w.Primary = append(w.Primary, schema.Dataset{
			Name: analystRaw(c),
			Size: 1e9,
			Attrs: schema.Attributes{
				"tag":     analystChainTag(c),
				"project": "caves",
			},
		})
		in := analystRaw(c)
		for j := 0; j < s.Depth; j++ {
			out := analystStage(j, c)
			w.Derivations = append(w.Derivations, schema.Derivation{
				TR: w.Transformations[j].Ref(),
				Params: map[string]schema.Actual{
					"out": outArg(out),
					"in":  inArg(in),
				},
			})
			in = out
		}
		w.Targets = append(w.Targets, in)
	}
	return w
}

// SummaryDerivation is the deterministic re-derivation request for
// chain c: every analyst asking for chain c's summary submits this
// exact derivation.
func (s AnalystStorm) SummaryDerivation(c int) schema.Derivation {
	s = s.withDefaults()
	return schema.Derivation{
		TR: "caves::summarize",
		Params: map[string]schema.Actual{
			"out": outArg(analystSummary(c)),
			"in":  inArg(s.last(c)),
		},
	}
}

// Scripts generates one deterministic op script per analyst: ~80%
// discovery queries over Zipf-popular chains, ~10% new tagged dataset
// definitions, ~10% summary re-derivation requests.
func (s AnalystStorm) Scripts() [][]AnalystOp {
	s = s.withDefaults()
	scripts := make([][]AnalystOp, s.Analysts)
	for a := range scripts {
		rng := rand.New(rand.NewSource(s.Seed + 1000*int64(a)))
		picks := Zipf(s.Seed+7919*int64(a+1), s.Chains, s.Skew, s.Ops)
		ops := make([]AnalystOp, 0, s.Ops)
		for n := 0; n < s.Ops; n++ {
			c := picks[n]
			switch roll := rng.Float64(); {
			case roll < 0.80:
				q, kind := s.discoverQuery(rng.Intn(4), c)
				ops = append(ops, AnalystOp{Kind: OpDiscover, Query: q, QueryKind: kind})
			case roll < 0.90:
				ops = append(ops, AnalystOp{Kind: OpDefine, Dataset: schema.Dataset{
					Name: fmt.Sprintf("analyst%03d.note%04d", a, n),
					Attrs: schema.Attributes{
						"tag":     analystChainTag(c),
						"project": "caves",
					},
				}})
			default:
				ops = append(ops, AnalystOp{Kind: OpDerive, Derivation: s.SummaryDerivation(c)})
			}
		}
		scripts[a] = ops
	}
	return scripts
}

// discoverQuery returns the shape-th discovery query over chain c: the
// §3.1 patterns — "what carries this tag", "is this result derived",
// "what consumes this input", "which derivation produced this".
func (s AnalystStorm) discoverQuery(shape, c int) (string, query.Kind) {
	switch shape {
	case 0:
		return fmt.Sprintf("attr.tag = %s", analystChainTag(c)), query.KDataset
	case 1:
		return fmt.Sprintf("name = %s and derived", s.last(c)), query.KDataset
	case 2:
		return fmt.Sprintf("consumes(%s)", analystRaw(c)), query.KDerivation
	default:
		return fmt.Sprintf("produces(%s)", analystStage(0, c)), query.KDerivation
	}
}
