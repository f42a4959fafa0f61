package query

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"chimera/internal/catalog"
	"chimera/internal/obs"
	"chimera/internal/schema"
)

// The predicate planner. A query is planned by flattening its top-level
// AND-conjuncts into three groups:
//
//   - *indexed* conjuncts, whose exact matching set the catalog's
//     secondary indexes hold. The view hands each set out as its own
//     parts (catalog.IndexParts), never merged or copied; the planner
//     iterates the smallest and probes the others.
//   - *key tests*, decided on the candidate's identifier before the object
//     is loaded: `name ~ p` and `name != v` on datasets and transformations
//     (whose name is the map key), and the unmaterialized half of `virtual`.
//   - the *residual*, evaluated only on the objects that survive both.
//
// A query with no indexed conjunct scans the snapshot. With key tests it
// ranges the identifiers and fetches only accepted ones; without, it
// ranges the objects themselves.
//
// Indexed conjuncts (per object kind):
//
//	name = v                 exact-name lookup
//	attr.k = v               attribute index
//	type <= T                exact-type sets under conformance (datasets)
//	derived | materialized | executed             flag sets
//	virtual                  derived ∩ key test "not materialized"
//	tr = ref                 transformation-ref index (incl. versionless)
//	consumes(ds) | produces(ds)                   provenance index
//	descendantof(ds) | ancestorof(ds)             provenance closure (datasets)
//
// A predicate whose kind cannot match (e.g. `derived` against
// derivations) is constant-false: it yields the empty candidate set.
// Everything else — negations, OR subtrees, attribute `!=`/`~`
// comparisons, derivation display-name patterns, transformation type
// predicates — stays residual.

// Query metrics: planner path counters, candidate-set sizes, objects
// loaded, and end-to-end run latency by path.
var (
	queryCandBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384}

	metricQueryRuns = obs.Default.CounterVec("vdc_query_runs_total",
		"Query executions by planner path (index = candidate intersection, scan = full snapshot scan).", "path")
	metricQuerySeconds = obs.Default.HistogramVec("vdc_query_seconds",
		"End-to-end query latency (plan + execute) by planner path.", obs.TimeBuckets, "path")
	metricQueryCandidates = obs.Default.Histogram("vdc_query_candidates",
		"Candidate-set size after index intersection (indexed path only).", queryCandBuckets)
	metricQueryLoaded = obs.Default.CounterVec("vdc_query_objects_loaded_total",
		"Objects fetched from the catalog view to evaluate the residual on, by planner path; compare with rows returned.", "path")

	queryRunsIndex   = metricQueryRuns.With("index")
	queryRunsScan    = metricQueryRuns.With("scan")
	querySecsIndex   = metricQuerySeconds.With("index")
	querySecsScan    = metricQuerySeconds.With("scan")
	queryLoadedIndex = metricQueryLoaded.With("index")
	queryLoadedScan  = metricQueryLoaded.With("scan")
)

// cset is a candidate set: index parts (the zero value is the
// constant-empty set), or a provenance closure map.
type cset struct {
	parts   catalog.IndexParts
	closure map[string]bool
}

func (s cset) size() int {
	if s.closure != nil {
		return len(s.closure)
	}
	return s.parts.Len()
}

func (s cset) has(id string) bool {
	if s.closure != nil {
		return s.closure[id]
	}
	return s.parts.Has(id)
}

func (s cset) each(fn func(string)) {
	if s.closure != nil {
		for id := range s.closure {
			fn(id)
		}
		return
	}
	s.parts.Each(fn)
}

// planStep is one indexed conjunct.
type planStep struct {
	pred Expr
	size int // its candidate-set size at plan time
	set  cset
}

// keyTest is one conjunct decided on the identifier alone.
type keyTest struct {
	pred   Expr
	accept func(id string) bool
}

// queryPlan is the executable plan for one Run.
type queryPlan struct {
	kind  Kind
	scan  bool       // no conjunct was indexable
	steps []planStep // indexed conjuncts, when !scan
	keys  []keyTest
	// residual is evaluated on each loaded object: the conjuncts that are
	// neither indexed nor key tests (nil when none are left).
	residual   Expr
	candidates []string // identifiers passing every step and key test, unsorted, when !scan
	loaded     int      // objects execute fetched from the view
}

// String renders the plan in EXPLAIN style, e.g.
//
//	index derivations: [tr = sdss::brgSearch ->2] ∩ [executed ->1] => 1 candidate; residual: attr.campaign = "dr1"
//	index datasets: [derived ->3] ∩ [name ~ "b*" key] => 2 candidates
//	scan datasets: [name ~ "raw*" key]; residual: not derived
//	scan datasets: no indexable conjunct
func (p *queryPlan) String() string {
	var b strings.Builder
	if p.scan && len(p.keys) == 0 {
		fmt.Fprintf(&b, "scan %s: no indexable conjunct", kindNoun(p.kind))
		return b.String()
	}
	path := "index"
	if p.scan {
		path = "scan"
	}
	fmt.Fprintf(&b, "%s %s: ", path, kindNoun(p.kind))
	sep := ""
	for _, st := range p.steps {
		fmt.Fprintf(&b, "%s[%s ->%d]", sep, st.pred, st.size)
		sep = " ∩ "
	}
	for _, k := range p.keys {
		fmt.Fprintf(&b, "%s[%s key]", sep, k.pred)
		sep = " ∩ "
	}
	if !p.scan {
		noun := "candidates"
		if len(p.candidates) == 1 {
			noun = "candidate"
		}
		fmt.Fprintf(&b, " => %d %s", len(p.candidates), noun)
	}
	if p.residual != nil {
		fmt.Fprintf(&b, "; residual: %s", p.residual)
	}
	return b.String()
}

func kindNoun(k Kind) string {
	switch k {
	case KDataset:
		return "datasets"
	case KTransformation:
		return "transformations"
	default:
		return "derivations"
	}
}

// flattenAnd appends the AND-conjuncts of e to out.
func flattenAnd(e Expr, out []Expr) []Expr {
	if a, ok := e.(andExpr); ok {
		out = flattenAnd(a.l, out)
		return flattenAnd(a.r, out)
	}
	return append(out, e)
}

// andChain re-joins residual conjuncts in their original order, so the
// residual short-circuits exactly like the full expression would.
func andChain(conjuncts []Expr) Expr {
	if len(conjuncts) == 0 {
		return nil
	}
	e := conjuncts[0]
	for _, c := range conjuncts[1:] {
		e = andExpr{l: e, r: c}
	}
	return e
}

// emptySet is the constant-false candidate set.
var emptySet = cset{}

// singleton returns a one-element candidate set, or the empty set when
// present is false.
func singleton(id string, present bool) cset {
	if !present {
		return emptySet
	}
	return cset{parts: catalog.SetOf(id)}
}

// indexConjunct maps one conjunct to its exact candidate set. It
// returns handled=false when the conjunct is not indexable for this
// kind and must stay residual. Errors are plan-time failures (an
// unknown dataset in a provenance closure) and abort the query, like
// the scan path's eval-time error would.
func indexConjunct(ctx *evalCtx, kind Kind, e Expr) (cset, bool, error) {
	v := ctx.view
	switch p := e.(type) {
	case namePred:
		if p.cmp.op != opEq {
			return emptySet, false, nil
		}
		switch kind {
		case KDataset:
			_, ok := v.Dataset(p.cmp.val)
			return singleton(p.cmp.val, ok), true, nil
		case KTransformation:
			// Query names are exact canonical refs; versionless
			// resolution is a lookup concern, not a search one.
			return singleton(p.cmp.val, v.HasTransformation(p.cmp.val)), true, nil
		default:
			return cset{parts: v.DerivationsByName(p.cmp.val)}, true, nil
		}
	case attrPred:
		if p.cmp.op != opEq {
			return emptySet, false, nil
		}
		switch kind {
		case KDataset:
			return cset{parts: v.DatasetsByAttr(p.key, p.cmp.val)}, true, nil
		case KTransformation:
			return cset{parts: v.TransformationsByAttr(p.key, p.cmp.val)}, true, nil
		default:
			return cset{parts: v.DerivationsByAttr(p.key, p.cmp.val)}, true, nil
		}
	case typePred:
		switch kind {
		case KDataset:
			if p.field != "type" {
				// input/output predicates never match datasets.
				return emptySet, true, nil
			}
			if p.t.IsUniversal() {
				// Matches every dataset: constrains nothing.
				return emptySet, false, nil
			}
			return cset{parts: v.DatasetsByType(p.t)}, true, nil
		case KTransformation:
			// Formal-list scan; stays residual.
			return emptySet, false, nil
		default:
			return emptySet, true, nil // never matches derivations
		}
	case flagPred:
		switch p.flag {
		case "derived":
			if kind != KDataset {
				return emptySet, true, nil
			}
			return cset{parts: v.DerivedDatasets()}, true, nil
		case "materialized":
			if kind != KDataset {
				return emptySet, true, nil
			}
			return cset{parts: v.MaterializedDatasets()}, true, nil
		case "virtual":
			if kind != KDataset {
				return emptySet, true, nil
			}
			// No index holds this set; plan splits the conjunct into
			// `derived` and a key test before it gets here.
			return emptySet, false, nil
		case "executed":
			if kind != KDerivation {
				return emptySet, true, nil
			}
			return cset{parts: v.ExecutedDerivations()}, true, nil
		default: // simple/compound: cheap residual for transformations
			if kind != KTransformation {
				return emptySet, true, nil
			}
			return emptySet, false, nil
		}
	case trPred:
		if kind != KDerivation {
			return emptySet, true, nil
		}
		return cset{parts: v.DerivationsByTR(p.ref)}, true, nil
	case relPred:
		switch p.rel {
		case "descendantof", "ancestorof":
			if kind != KDataset {
				return emptySet, true, nil
			}
			var m map[string]bool
			var err error
			if p.rel == "descendantof" {
				m, err = ctx.descendants(p.ds)
			} else {
				m, err = ctx.ancestors(p.ds)
			}
			if err != nil {
				return emptySet, false, err
			}
			return cset{closure: m}, true, nil
		case "consumes":
			if kind != KDerivation {
				return emptySet, true, nil
			}
			return cset{parts: catalog.SetOf(v.ConsumersOf(p.ds)...)}, true, nil
		case "produces":
			if kind != KDerivation {
				return emptySet, true, nil
			}
			prod := v.ProducerOf(p.ds)
			return singleton(prod, prod != ""), true, nil
		}
		return emptySet, false, nil
	default:
		return emptySet, false, nil
	}
}

// keyConjunct maps one conjunct to a test on the object's identifier,
// when the identifier decides it: name comparisons other than `=` (which
// is an index lookup) on the kinds whose name is the map key.
func keyConjunct(kind Kind, e Expr) (keyTest, bool) {
	if p, ok := e.(namePred); ok && p.cmp.op != opEq && kind != KDerivation {
		return keyTest{pred: e, accept: p.cmp.test}, true
	}
	return keyTest{}, false
}

// plan builds the query plan for e against the snapshot in ctx.
func plan(ctx *evalCtx, kind Kind, e Expr) (*queryPlan, error) {
	p := &queryPlan{kind: kind}
	v := ctx.view
	var residual []Expr
	for _, cj := range flattenAnd(e, nil) {
		if _, ok := cj.(truePred); ok {
			continue // `*` constrains nothing
		}
		if key, ok := keyConjunct(kind, cj); ok {
			p.keys = append(p.keys, key)
			continue
		}
		if f, ok := cj.(flagPred); ok && f.flag == "virtual" && kind == KDataset {
			// derived and not materialized: the derived parts bound the
			// candidates and the flag set is probed per candidate, so the
			// cost is the intersection's, not the catalog's.
			cj = flagPred{flag: "derived"}
			p.keys = append(p.keys, keyTest{
				pred:   notExpr{flagPred{flag: "materialized"}},
				accept: func(id string) bool { return !v.Materialized(id) },
			})
		}
		set, handled, err := indexConjunct(ctx, kind, cj)
		if err != nil {
			return nil, err
		}
		if !handled {
			residual = append(residual, cj)
			continue
		}
		p.steps = append(p.steps, planStep{pred: cj, size: set.size(), set: set})
	}
	p.residual = andChain(residual)
	if len(p.steps) == 0 {
		p.scan = true
		return p, nil
	}

	// Intersect, iterating the smallest set and probing the others.
	sort.SliceStable(p.steps, func(i, j int) bool { return p.steps[i].size < p.steps[j].size })
	rest := p.steps[1:]
	p.steps[0].set.each(func(id string) {
		if !p.acceptKey(id) {
			return
		}
		for _, st := range rest {
			if !st.set.has(id) {
				return
			}
		}
		p.candidates = append(p.candidates, id)
	})
	// Left unsorted: execute sorts the (usually far smaller) result set,
	// not the candidates.
	return p, nil
}

// acceptKey reports whether an identifier passes every key test.
func (p *queryPlan) acceptKey(id string) bool {
	for _, k := range p.keys {
		if !k.accept(id) {
			return false
		}
	}
	return true
}

// run evaluates e against a catalog View (the catalog's read lock, held
// for the run), consulted through the result cache.
func run(callCtx context.Context, c *catalog.Catalog, kind Kind, e Expr) (Results, error) {
	if kind != KDataset && kind != KTransformation && kind != KDerivation {
		return Results{}, fmt.Errorf("query: invalid kind %d", int(kind))
	}
	start := time.Now()
	_, span := obs.StartSpan(callCtx, "query.run")
	span.SetAttr("kind", kindNoun(kind))
	defer span.End()
	v := c.View()
	defer v.Close()

	// Cache lookup. The view is acquired *first* and the cache taken
	// from it, so a hit is exactly a prior execution against identical
	// state.
	var cache *resultCache
	var key string
	if cacheEnabled() {
		cache, key = cacheOf(v), cacheKey(kind, e)
		if res, ok := cache.get(key); ok {
			metricPlanCacheHits.Inc()
			span.SetAttr("path", "cached")
			queryRunsCached.Inc()
			querySecsCached.ObserveSince(start)
			return res, nil
		}
		metricPlanCacheMisses.Inc()
	}

	res, p, err := evalView(v, kind, e)
	if err != nil {
		span.SetError(err)
		return Results{}, err
	}
	if cache != nil {
		cache.put(key, cloneResults(res))
	}
	if p.scan {
		span.SetAttr("path", "scan")
		queryRunsScan.Inc()
		querySecsScan.ObserveSince(start)
		queryLoadedScan.Add(uint64(p.loaded))
	} else {
		span.SetAttr("path", "index")
		span.SetAttr("candidates", strconv.Itoa(len(p.candidates)))
		queryRunsIndex.Inc()
		querySecsIndex.ObserveSince(start)
		metricQueryCandidates.Observe(float64(len(p.candidates)))
		queryLoadedIndex.Add(uint64(p.loaded))
	}
	return res, nil
}

// evalView plans and executes a query against an already-open view:
// what a cache miss in run does.
func evalView(v *catalog.View, kind Kind, e Expr) (Results, *queryPlan, error) {
	ctx := newEvalCtx(v)
	p, err := plan(ctx, kind, e)
	if err != nil {
		return Results{}, nil, err
	}
	res, err := p.execute(ctx)
	if err != nil {
		return Results{}, nil, err
	}
	return res, p, nil
}

// execute materializes the plan's results, ordered datasets by name,
// transformations by ref, derivations by ID.
func (p *queryPlan) execute(ctx *evalCtx) (Results, error) {
	var res Results
	var err error
	v := ctx.view
	switch p.kind {
	case KDataset:
		res.Datasets, err = collect(p, ctx, kindOps[schema.Dataset]{
			load: v.Dataset, each: v.RangeDatasets, keys: v.RangeDatasetNames,
			obj: func(ds *schema.Dataset) object { return object{kind: KDataset, ds: ds} },
			id:  func(ds *schema.Dataset) string { return ds.Name },
		})
	case KTransformation:
		res.Transformations, err = collect(p, ctx, kindOps[schema.Transformation]{
			load: v.Transformation, each: v.RangeTransformations, keys: v.RangeTransformationRefs,
			obj: func(tr *schema.Transformation) object { return object{kind: KTransformation, tr: tr} },
			id:  func(tr *schema.Transformation) string { return tr.Ref() },
		})
	case KDerivation:
		res.Derivations, err = collect(p, ctx, kindOps[schema.Derivation]{
			load: v.Derivation, each: v.RangeDerivations, // no key tests: the display name is not the key
			obj: func(dv *schema.Derivation) object { return object{kind: KDerivation, dv: dv} },
			id:  func(dv *schema.Derivation) string { return dv.ID },
		})
	}
	return res, err
}

// kindOps binds collect to one object kind's storage in the view.
type kindOps[T any] struct {
	load func(id string) (T, bool)
	each func(fn func(T) bool)         // every object
	keys func(fn func(id string) bool) // every identifier
	obj  func(*T) object
	id   func(*T) string // the result order
}

// collect loads the plan's objects — the candidates, the identifiers a
// key-tested scan accepts, or everything — keeps those the residual
// accepts, and sorts them.
func collect[T any](p *queryPlan, ctx *evalCtx, k kindOps[T]) ([]T, error) {
	var out []T
	if !p.scan && p.residual == nil {
		out = make([]T, 0, len(p.candidates)) // every candidate is an answer
	}
	var evalErr error
	// One slot for the object under evaluation: its address escapes into
	// eval, so a per-object variable would be a heap allocation each.
	var cur T
	keep := func() bool {
		p.loaded++
		if p.residual != nil {
			ok, err := p.residual.eval(ctx, k.obj(&cur))
			if err != nil {
				evalErr = err
				return false
			}
			if !ok {
				return true
			}
		}
		out = append(out, cur)
		return true
	}
	byID := func(id string) bool {
		var ok bool
		if cur, ok = k.load(id); !ok {
			return true
		}
		return keep()
	}
	switch {
	case !p.scan:
		for _, id := range p.candidates {
			if !byID(id) {
				break
			}
		}
	case len(p.keys) > 0:
		k.keys(func(id string) bool { return !p.acceptKey(id) || byID(id) })
	default:
		k.each(func(o T) bool {
			cur = o
			return keep()
		})
	}
	if evalErr != nil {
		return nil, evalErr
	}
	sort.Slice(out, func(i, j int) bool { return k.id(&out[i]) < k.id(&out[j]) })
	return out, nil
}

// Explain plans (but does not execute) a query and renders the plan: a
// one-line EXPLAIN string showing the chosen path, the indexed
// conjuncts with their candidate-set sizes, and the residual predicate.
func Explain(c *catalog.Catalog, kind Kind, e Expr) (string, error) {
	info, err := ExplainQuery(c, kind, e)
	if err != nil {
		return "", err
	}
	return info.Plan, nil
}

// ExplainInfo is Explain plus the cache placement of the query: whether
// a run right now would be answered from the result cache, and the
// catalog version (journal instance + sequence) that placement was
// validated against. vds surfaces it via ?explain=1.
type ExplainInfo struct {
	Plan string `json:"plan"`
	// Cached reports whether a cached result exists for this exact
	// predicate at the catalog's current version.
	Cached bool `json:"cached"`
	// Epoch is that version, the view's journal cursor
	// "instance.seq" (/debug/vdc's journal reports the same pair).
	Epoch string `json:"epoch"`
}

// ExplainQuery plans a query and reports the plan together with its
// cache placement at the catalog's current version.
func ExplainQuery(c *catalog.Catalog, kind Kind, e Expr) (ExplainInfo, error) {
	if kind != KDataset && kind != KTransformation && kind != KDerivation {
		return ExplainInfo{}, fmt.Errorf("query: invalid kind %d", int(kind))
	}
	v := c.View()
	defer v.Close()
	ctx := newEvalCtx(v)
	p, err := plan(ctx, kind, e)
	if err != nil {
		return ExplainInfo{}, err
	}
	info := ExplainInfo{Plan: p.String(), Epoch: v.EpochKey()}
	if cacheEnabled() {
		info.Cached = cacheOf(v).has(cacheKey(kind, e))
	}
	return info, nil
}
