package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"time"

	"chimera/internal/schema"
	"chimera/internal/workload"
)

// This file is the input model: every object a server is preloaded
// with, every operation a client sends and the answer each read must
// return all derive from the seed here, in the benchmark process. The
// servers only ever see the generated requests.

// opKind names one vds.Client call.
type opKind uint8

const (
	kDiscoverDS  opKind = iota // SearchDatasetsCtx(arg)
	kDiscoverDV                // SearchDerivationsCtx(arg)
	kGetDS                     // Dataset(arg)
	kGetDV                     // Derivation(arg)
	kAncestors                 // Ancestors(arg)
	kDescendants               // Descendants(arg)
	kLineage                   // Lineage(arg)
	kExportSince               // ExportSince from the client's cursor
	kPutDS                     // PutDataset(ds)
	kPutDV                     // PutDerivation(dv)
	kPutIV                     // PutInvocation(iv)
	kPutRep                    // PutReplica(rep)
)

var opKindNames = [...]string{"discover_ds", "discover_dv", "get_ds", "get_dv", "ancestors",
	"descendants", "lineage", "export_since", "put_ds", "put_dv", "put_iv", "put_rep"}

func (k opKind) String() string { return opKindNames[k] }

// opClass is the latency class an op reports under: reads are
// discover, get, lineage and delta export; writes are acknowledged
// only after fsync.
type opClass uint8

const (
	classRead opClass = iota
	classWrite
	numClasses
)

func (k opKind) class() opClass {
	if k >= kPutDS {
		return classWrite
	}
	return classRead
}

// answer is what a read must return, as a count of identifiers and an
// order-independent sum of their hashes. On a workload with writers
// only the preloaded ("base") members of the reply are counted, so the
// check is base ⊆ reply.
type answer struct {
	n   int
	sum uint64
}

func hashID(id string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return h.Sum64()
}

func (a *answer) add(id string) {
	a.n++
	a.sum += hashID(id)
}

func answerOf(ids ...string) answer {
	var a answer
	for _, id := range ids {
		a.add(id)
	}
	return a
}

// op is one scripted client call. Exactly the fields its kind reads
// are set.
type op struct {
	kind opKind
	arg  string
	want answer
	ds   schema.Dataset
	dv   schema.Derivation
	iv   schema.Invocation
	rep  schema.Replica
}

// script is one client's deterministic op sequence. It is generated
// ahead of the window so that building requests does not compete with
// the server for CPU, and grows on demand if a client outruns it.
type script struct {
	ops []op
	gen func() op
}

func newScript(prefill int, gen func() op) *script {
	s := &script{gen: gen, ops: make([]op, 0, prefill)}
	for len(s.ops) < prefill {
		s.ops = append(s.ops, gen())
	}
	return s
}

func (s *script) at(i int) *op {
	for i >= len(s.ops) {
		s.ops = append(s.ops, s.gen())
	}
	return &s.ops[i]
}

// hash digests the first n ops, payloads included: the determinism
// tests compare it across generations.
func (s *script) hash(n int) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for i := 0; i < n; i++ {
		o := s.at(i)
		fmt.Fprintf(h, "%s|%s|%d|%d|", o.kind, o.arg, o.want.n, o.want.sum)
		switch o.kind {
		case kPutDS:
			enc.Encode(o.ds)
		case kPutDV:
			enc.Encode(o.dv)
		case kPutIV:
			enc.Encode(o.iv)
		case kPutRep:
			enc.Encode(o.rep)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// clientRNG derives an independent stream per (seed, workload, client).
func clientRNG(seed int64, salt string, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(hashID(salt)%1000003)*131 + int64(client)))
}

// --- The CAVES base ----------------------------------------------------

const stormTagGroups = 16 // workload.AnalystStorm spreads chains over 16 tags

// stormModel is the benchmark's own picture of an AnalystStorm base:
// the names and derivation IDs it must contain, from which expected
// answers are built without consulting the system under test.
type stormModel struct {
	storm  workload.AnalystStorm
	base   workload.Workload
	chains int
	depth  int
	dvID   [][]string          // [chain][stage] derivation ID
	baseDV map[string]struct{} // all base derivation IDs
	byTag  [stormTagGroups]answer
}

func stormRaw(c int) string      { return fmt.Sprintf("caves.raw.%04d", c) }
func stormStage(j, c int) string { return fmt.Sprintf("caves.s%d.%04d", j, c) }
func stormTag(c int) string      { return fmt.Sprintf("tag%02d", c%stormTagGroups) }

func (m *stormModel) last(c int) string { return stormStage(m.depth-1, c) }

// newStormModel generates the base for `chains` chains of depth 3.
// Primary dataset sizes are drawn from the seed so that the bytes on
// disk are an input of the run, like everything else.
func newStormModel(chains int, seed int64) *stormModel {
	storm := workload.AnalystStorm{Chains: chains, Depth: 3, Seed: seed}
	m := &stormModel{storm: storm, base: storm.Base(), chains: chains, depth: 3,
		baseDV: make(map[string]struct{}, chains*3)}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for i := range m.base.Primary {
		m.base.Primary[i].Size = 1e9 + rng.Int63n(1e9)
	}
	m.dvID = make([][]string, chains)
	for c := 0; c < chains; c++ {
		m.dvID[c] = make([]string, m.depth)
		for j := 0; j < m.depth; j++ {
			id := m.base.Derivations[c*m.depth+j].Signature()
			m.dvID[c][j] = id
			m.baseDV[id] = struct{}{}
		}
		m.byTag[c%stormTagGroups].add(stormRaw(c))
	}
	return m
}

// objects is how many catalog objects the base holds: per chain one
// raw dataset, depth derived datasets and depth derivations, plus the
// transformations.
func (m *stormModel) objects() int {
	return m.chains*(1+2*m.depth) + len(m.base.Transformations)
}

// isBaseDS reports whether a dataset name belongs to the preloaded
// base (as opposed to one a client registered during the run).
func isBaseDS(name string) bool {
	return strings.HasPrefix(name, "caves.raw.") ||
		(strings.HasPrefix(name, "caves.s") && !strings.HasPrefix(name, "caves.summary."))
}

// discover returns the shape-th discovery query over chain c, the four
// shapes of workload.AnalystStorm: what carries this tag, is this
// result derived, what consumes this input, what produced this.
func (m *stormModel) discover(shape, c int) op {
	switch shape {
	case 0:
		return op{kind: kDiscoverDS, arg: "attr.tag = " + stormTag(c), want: m.byTag[c%stormTagGroups]}
	case 1:
		return op{kind: kDiscoverDS, arg: "name = " + m.last(c) + " and derived", want: answerOf(m.last(c))}
	case 2:
		return op{kind: kDiscoverDV, arg: "consumes(" + stormRaw(c) + ")", want: answerOf(m.dvID[c][0])}
	default:
		return op{kind: kDiscoverDV, arg: "produces(" + stormStage(0, c) + ")", want: answerOf(m.dvID[c][0])}
	}
}

// block returns the answer for "every chain whose four-digit number
// starts with the two digits nn" applied to name(c).
func (m *stormModel) block(nn int, name func(c int) string) answer {
	var a answer
	for c := nn * 100; c < nn*100+100 && c < m.chains; c++ {
		a.add(name(c))
	}
	return a
}

// residual returns a predicate the index cannot answer alone: a name
// glob (scan), an indexed attribute with residual conjuncts, or a
// provenance relation.
func (m *stormModel) residual(shape, c int) op {
	nn := c / 100
	switch shape {
	case 0:
		return op{kind: kDiscoverDS, arg: fmt.Sprintf("name ~ \"caves.s1.%02d*\"", nn),
			want: m.block(nn, func(c int) string { return stormStage(1, c) })}
	case 1:
		return op{kind: kDiscoverDS,
			arg:  fmt.Sprintf("attr.project = caves and not derived and name ~ \"caves.raw.%02d*\"", nn),
			want: m.block(nn, stormRaw)}
	default:
		var a answer
		for j := 0; j < m.depth; j++ {
			a.add(stormStage(j, c))
		}
		return op{kind: kDiscoverDS, arg: "descendantof(" + stormRaw(c) + ")", want: a}
	}
}

func (m *stormModel) get(rng *rand.Rand, c int) op {
	if rng.Intn(2) == 0 {
		name := stormRaw(c)
		if j := rng.Intn(m.depth + 1); j > 0 {
			name = stormStage(j-1, c)
		}
		return op{kind: kGetDS, arg: name, want: answerOf(name)}
	}
	id := m.dvID[c][rng.Intn(m.depth)]
	return op{kind: kGetDV, arg: id, want: answerOf(id)}
}

// ancestors of chain c's final result: every earlier dataset of the
// chain and all of its derivations.
func (m *stormModel) ancestors(c int) op {
	a := answerOf(stormRaw(c))
	for j := 0; j < m.depth; j++ {
		if j < m.depth-1 {
			a.add(stormStage(j, c))
		}
		a.add(m.dvID[c][j])
	}
	return op{kind: kAncestors, arg: m.last(c), want: a}
}

func (m *stormModel) descendants(c int) op {
	var a answer
	for j := 0; j < m.depth; j++ {
		a.add(stormStage(j, c))
		a.add(m.dvID[c][j])
	}
	return op{kind: kDescendants, arg: stormRaw(c), want: a}
}

// lineage of chain c's final result: one step per derivation, rooted
// at the raw dataset.
func (m *stormModel) lineage(c int) op {
	a := answerOf(stormRaw(c))
	for j := 0; j < m.depth; j++ {
		a.add(m.dvID[c][j])
	}
	return op{kind: kLineage, arg: m.last(c), want: a}
}

// --- Read scripts ------------------------------------------------------

// hotChains bounds analyst_hot's popularity to the first 250 chains:
// 16 tag predicates + 3×250 per-chain predicates = 766 distinct
// queries, under the server's 1024-entry plan cache.
const hotChains = 250

// analystHotScript: Zipf(1.3) over the hot chains; 70% discover, 20%
// get, 10% lineage. No writes, so the catalog epoch never moves.
func analystHotScript(m *stormModel, seed int64, client, prefill int) *script {
	rng := clientRNG(seed, "analyst_hot", client)
	hot := min(hotChains, m.chains)
	zipf := rand.NewZipf(rng, 1.3, 1, uint64(hot-1))
	return newScript(prefill, func() op {
		c := int(zipf.Uint64())
		switch roll := rng.Float64(); {
		case roll < 0.70:
			return m.discover(rng.Intn(4), c)
		case roll < 0.90:
			return m.get(rng, c)
		default:
			return m.ancestors(c)
		}
	})
}

// discoverWideScript: uniform popularity over every chain, so the
// distinct predicates outnumber the plan cache many times over; 50%
// the four shapes, 25% residual predicates, 25% lineage/descendants.
func discoverWideScript(m *stormModel, seed int64, client, prefill int) *script {
	rng := clientRNG(seed, "discover_wide", client)
	return newScript(prefill, func() op {
		c := rng.Intn(m.chains)
		switch roll := rng.Float64(); {
		case roll < 0.50:
			return m.discover(rng.Intn(4), c)
		case roll < 0.75:
			return m.residual(rng.Intn(3), c)
		case roll < 0.875:
			return m.lineage(c)
		default:
			return m.descendants(c)
		}
	})
}

// --- Write scripts -----------------------------------------------------

// benchEpoch anchors generated invocation timestamps: inputs must not
// depend on the wall clock.
var benchEpoch = time.Date(2003, 1, 5, 0, 0, 0, 0, time.UTC)

// chainWriter emits the ten registrations of one fresh three-stage
// chain at a time, the way an executor records a finished workflow: the
// raw dataset, three derivations, their three invocations, and a
// replica of each derived dataset. Names carry the writer's prefix and
// a counter, so no two writers ever collide.
type chainWriter struct {
	m      *stormModel
	prefix string
	rng    *rand.Rand
	next   int  // chain counter
	queue  []op // remaining ops of the current chain
}

func (w *chainWriter) op() op {
	if len(w.queue) == 0 {
		w.fill()
	}
	o := w.queue[0]
	w.queue = w.queue[1:]
	return o
}

func (w *chainWriter) fill() {
	i := w.next
	w.next++
	site := fmt.Sprintf("site%02d", w.rng.Intn(48))
	raw := fmt.Sprintf("%s.raw.%07d", w.prefix, i)
	w.queue = append(w.queue[:0], op{kind: kPutDS, ds: schema.Dataset{
		Name: raw, Size: 1e9 + w.rng.Int63n(1e9),
		Attrs: schema.Attributes{"tag": stormTag(i), "project": w.prefix},
	}})
	var dvs []schema.Derivation
	var outs []string
	in := raw
	for j := 0; j < w.m.depth; j++ {
		out := fmt.Sprintf("%s.s%d.%07d", w.prefix, j, i)
		dv := schema.Derivation{TR: w.m.base.Transformations[j].Ref(), Params: map[string]schema.Actual{
			"out": schema.DatasetActual("output", out),
			"in":  schema.DatasetActual("input", in),
		}}.Canonicalize()
		dvs = append(dvs, dv)
		outs = append(outs, out)
		w.queue = append(w.queue, op{kind: kPutDV, dv: dv})
		in = out
	}
	start := benchEpoch.Add(time.Duration(i) * time.Minute)
	for j, dv := range dvs {
		w.queue = append(w.queue, op{kind: kPutIV, iv: schema.Invocation{
			ID: "iv-" + dv.ID + "-0", Derivation: dv.ID, Site: site,
			Host:  fmt.Sprintf("%s-h%04d", site, w.rng.Intn(200)),
			Start: start.Add(time.Duration(j) * time.Minute), End: start.Add(time.Duration(j+1) * time.Minute),
			BytesIn: 200e6, BytesOut: 200e6,
		}})
	}
	for j, out := range outs {
		w.queue = append(w.queue, op{kind: kPutRep, rep: schema.Replica{
			ID: "rep-" + out + "-" + site, Dataset: out, Site: site,
			PFN: "/store/" + site + "/" + out, Size: 200e6, ProducedBy: "iv-" + dvs[j].ID + "-0",
		}})
	}
}

// ingestScript is a write-only client: chain after chain.
func ingestScript(m *stormModel, seed int64, client, prefill int) *script {
	w := &chainWriter{m: m, prefix: fmt.Sprintf("ing.c%d", client), rng: clientRNG(seed, "ingest_durable", client)}
	return newScript(prefill, w.op)
}

// collabAnalystScript mirrors workload.AnalystStorm.Scripts(): 80%
// discover, 10% define, 10% derive over Zipf-popular chains, with a
// quarter of the discovers asked as lineage instead.
func collabAnalystScript(m *stormModel, seed int64, client, prefill int) *script {
	rng := clientRNG(seed, "collab_mix", client)
	zipf := rand.NewZipf(rng, 1.3, 1, uint64(m.chains-1))
	n := 0
	return newScript(prefill, func() op {
		c := int(zipf.Uint64())
		n++
		switch roll := rng.Float64(); {
		case roll < 0.60:
			return m.discover(rng.Intn(4), c)
		case roll < 0.80:
			return m.lineage(c)
		case roll < 0.90:
			return op{kind: kPutDS, ds: schema.Dataset{
				Name:  fmt.Sprintf("analyst%03d.note%07d", client, n),
				Attrs: schema.Attributes{"tag": stormTag(c), "project": "caves"},
			}}
		default:
			return op{kind: kPutDV, dv: m.storm.SummaryDerivation(c).Canonicalize()}
		}
	})
}

// exportEvery is how often a production client pulls a delta export.
const exportEvery = 50

// collabProducerScript is a production client: chains as in
// ingest_durable, and every 50th op a binary delta export from the
// client's last (instance, seq) cursor.
func collabProducerScript(m *stormModel, seed int64, client, prefill int) *script {
	w := &chainWriter{m: m, prefix: fmt.Sprintf("prod.c%d", client), rng: clientRNG(seed, "collab_mix", client)}
	n := 0
	return newScript(prefill, func() op {
		n++
		if n%exportEvery == 0 {
			return op{kind: kExportSince}
		}
		return w.op()
	})
}
