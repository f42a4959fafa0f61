package query

import (
	"context"
	"fmt"
	"math"
	"slices"
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
// A `name ~ p` key test whose pattern starts with a literal prefix is
// also a *range step*: the catalog's ordered name index yields the names
// sharing the prefix, in order. Counted up to the smallest indexed set,
// the smaller of the two drives — `attr.project = caves and name ~
// "caves.raw.42*"` visits the hundred names in the range, not the ten
// thousand in the attribute set — and the other is probed per candidate.
//
// A query with no indexed conjunct and no range scans the snapshot:
// the ordered names for datasets and transformations, testing each key
// before fetching the object, the objects themselves for derivations.
// Every path but that last one yields its identifiers in result order,
// so only a derivation scan sorts its records.
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

// planStep is one indexed conjunct.
type planStep struct {
	pred Expr
	size int // its candidate-set size at plan time
	set  catalog.IndexParts
}

// keyTest is one conjunct decided on the identifier alone.
type keyTest struct {
	pred   Expr
	accept func(id string) bool
}

// rangeStep is a name-prefix range that drives a plan.
type rangeStep struct {
	key    int // the index in keys of the conjunct's own glob test
	prefix string
	size   int // the names in the range
}

// queryPlan is the executable plan for one Run.
type queryPlan struct {
	kind  Kind
	scan  bool       // no conjunct was indexable and no range drives
	steps []planStep // indexed conjuncts, smallest first
	rng   *rangeStep // the range the candidates come from, when one drives
	keys  []keyTest
	// residual is evaluated on each loaded object: the conjuncts that are
	// neither indexed nor key tests (nil when none are left).
	residual   Expr
	candidates []string // identifiers passing every step and key test, in identifier order, when !scan
	loaded     int      // objects execute fetched from the view
}

// String renders the plan in EXPLAIN style, e.g.
//
//	index derivations: [tr = sdss::brgSearch ->2] ∩ [executed ->1] => 1 candidate; residual: attr.campaign = "dr1"
//	index datasets: [name ~ "caves.raw.42*" range ->100] ∩ [attr.project = "caves" ->10000] => 100 candidates; residual: not derived
//	index datasets: [name = "raw1" ->1] ∩ [name ~ "r*" key] => 1 candidate
//	scan datasets: [name ~ "*1" key]; residual: not derived
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
	if p.rng != nil {
		fmt.Fprintf(&b, "[%s range ->%d]", p.keys[p.rng.key].pred, p.rng.size)
		sep = " ∩ "
	}
	for _, st := range p.steps {
		fmt.Fprintf(&b, "%s[%s ->%d]", sep, st.pred, st.size)
		sep = " ∩ "
	}
	for i, k := range p.keys {
		if p.rng != nil && i == p.rng.key {
			continue
		}
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
var emptySet = catalog.IndexParts{}

// singleton returns a one-element candidate set, or the empty set when
// present is false.
func singleton(id string, present bool) catalog.IndexParts {
	if !present {
		return emptySet
	}
	return catalog.SetOf(id)
}

// indexConjunct maps one conjunct to its exact candidate set. It
// returns handled=false when the conjunct is not indexable for this
// kind and must stay residual. Errors are plan-time failures (an
// unknown dataset in a provenance closure) and abort the query, like
// the scan path's eval-time error would.
func indexConjunct(ctx *evalCtx, kind Kind, e Expr) (catalog.IndexParts, bool, error) {
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
			return v.DerivationsByName(p.cmp.val), true, nil
		}
	case attrPred:
		if p.cmp.op != opEq {
			return emptySet, false, nil
		}
		switch kind {
		case KDataset:
			return v.DatasetsByAttr(p.key, p.cmp.val), true, nil
		case KTransformation:
			return v.TransformationsByAttr(p.key, p.cmp.val), true, nil
		default:
			return v.DerivationsByAttr(p.key, p.cmp.val), true, nil
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
			return v.DatasetsByType(p.t), true, nil
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
			return v.DerivedDatasets(), true, nil
		case "materialized":
			if kind != KDataset {
				return emptySet, true, nil
			}
			return v.MaterializedDatasets(), true, nil
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
			return v.ExecutedDerivations(), true, nil
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
		return v.DerivationsByTR(p.ref), true, nil
	case relPred:
		switch p.rel {
		case "descendantof", "ancestorof":
			if kind != KDataset {
				return emptySet, true, nil
			}
			var set catalog.IndexParts
			var err error
			if p.rel == "descendantof" {
				set, err = ctx.descendants(p.ds)
			} else {
				set, err = ctx.ancestors(p.ds)
			}
			if err != nil {
				return emptySet, false, err
			}
			return set, true, nil
		case "consumes":
			if kind != KDerivation {
				return emptySet, true, nil
			}
			return catalog.SetOf(v.ConsumersOf(p.ds)...), true, nil
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

// globPrefix returns the literal prefix of a key-tested `name ~ p`
// conjunct, "" when it has none.
func globPrefix(e Expr) string {
	if p, ok := e.(namePred); ok && p.cmp.op == opMatch {
		return p.cmp.prefix
	}
	return ""
}

// plan builds the query plan for e against the snapshot in ctx.
func plan(ctx *evalCtx, kind Kind, e Expr) (*queryPlan, error) {
	p := &queryPlan{kind: kind}
	v := ctx.view
	var residual []Expr
	var rng *rangeStep // the longest prefix: its range holds every other's intersection with it
	for _, cj := range flattenAnd(e, nil) {
		if _, ok := cj.(truePred); ok {
			continue // `*` constrains nothing
		}
		if key, ok := keyConjunct(kind, cj); ok {
			if pre := globPrefix(cj); pre != "" && (rng == nil || len(pre) > len(rng.prefix)) {
				rng = &rangeStep{key: len(p.keys), prefix: pre}
			}
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
		p.steps = append(p.steps, planStep{pred: cj, size: set.Len(), set: set})
	}
	p.residual = andChain(residual)
	sort.SliceStable(p.steps, func(i, j int) bool { return p.steps[i].size < p.steps[j].size })
	if rng != nil && p.rangeDrives(v, rng) {
		return p, nil
	}
	if len(p.steps) == 0 {
		p.scan = true
		return p, nil
	}

	// Intersect, iterating the smallest set and probing the others.
	rest := p.steps[1:]
	p.steps[0].set.Each(func(id string) {
		if p.accept(id, rest) {
			p.candidates = append(p.candidates, id)
		}
	})
	slices.Sort(p.candidates)
	return p, nil
}

// rangeDrives walks rng's names while they number no more than the
// smallest step's set, collecting the candidates as it goes. When the
// range ends within that bound it drives the plan, and its candidates
// are already in identifier order; otherwise the walk is abandoned, at
// no more cost than iterating that set, and the smallest step drives.
func (p *queryPlan) rangeDrives(v *catalog.View, rng *rangeStep) bool {
	limit := math.MaxInt
	if len(p.steps) > 0 {
		limit = p.steps[0].size
	}
	names := v.RangeDatasetNames
	if p.kind == KTransformation {
		names = v.RangeTransformationRefs
	}
	names(rng.prefix, func(id string) bool {
		if rng.size++; rng.size > limit {
			return false
		}
		if p.accept(id, p.steps) {
			p.candidates = append(p.candidates, id)
		}
		return true
	})
	if rng.size > limit {
		p.candidates = nil
		return false
	}
	p.rng = rng
	return true
}

// accept reports whether an identifier passes every key test and is in
// every one of steps.
func (p *queryPlan) accept(id string, steps []planStep) bool {
	if !p.acceptKey(id) {
		return false
	}
	for _, st := range steps {
		if !st.set.Has(id) {
			return false
		}
	}
	return true
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

// answer is one run's result, and where the cache keeps it.
type answer struct {
	res   Results // the cache's own when cache is set: read-only
	body  []byte  // the entry's stored reply in the run's media type, if any
	cache *resultCache
	key   string
}

// run evaluates e against a catalog View (the catalog's read lock, held
// for the run), consulted through the result cache. A run for a reply
// names its media type, to be handed the entry's stored body in it.
func run(callCtx context.Context, c *catalog.Catalog, kind Kind, e Expr, mediaType string) (answer, error) {
	if kind != KDataset && kind != KTransformation && kind != KDerivation {
		return answer{}, fmt.Errorf("query: invalid kind %d", int(kind))
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
	var a answer
	if cacheEnabled() {
		a.cache, a.key = cacheOf(v), cacheKey(kind, e)
		var ok bool
		if a.res, a.body, ok = a.cache.lookup(a.key, mediaType); ok {
			metricPlanCacheHits.Inc()
			span.SetAttr("path", "cached")
			queryRunsCached.Inc()
			querySecsCached.ObserveSince(start)
			return a, nil
		}
		metricPlanCacheMisses.Inc()
	}

	res, p, err := evalView(v, kind, e)
	if err != nil {
		span.SetError(err)
		return answer{}, err
	}
	a.res = res
	if a.cache != nil {
		a.cache.put(a.key, res)
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
	return a, nil
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
			load: v.Dataset, keys: v.RangeDatasetNames,
			obj: func(ds *schema.Dataset) object { return object{kind: KDataset, ds: ds} },
		})
	case KTransformation:
		res.Transformations, err = collect(p, ctx, kindOps[schema.Transformation]{
			load: v.Transformation, keys: v.RangeTransformationRefs,
			obj: func(tr *schema.Transformation) object { return object{kind: KTransformation, tr: tr} },
		})
	case KDerivation:
		// No ordered index: the display name is not the key, and IDs
		// are never searched by prefix. A scan sorts by ID.
		res.Derivations, err = collect(p, ctx, kindOps[schema.Derivation]{
			load: v.Derivation, each: v.RangeDerivations,
			obj: func(dv *schema.Derivation) object { return object{kind: KDerivation, dv: dv} },
			cmp: func(a, b schema.Derivation) int { return strings.Compare(a.ID, b.ID) },
		})
	}
	return res, err
}

// kindOps binds collect to one object kind's storage in the view: a
// kind is scanned in order through keys, or through each and then
// sorted by cmp.
type kindOps[T any] struct {
	load func(id string) (T, bool)
	keys func(prefix string, fn func(id string) bool) // identifiers in order
	each func(fn func(T) bool)                        // every object, unordered
	obj  func(*T) object
	cmp  func(a, b T) int // the result order
}

// collect loads the plan's objects — the candidates, the identifiers a
// key-tested scan accepts, or everything — and keeps those the residual
// accepts, in identifier order.
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
	case k.keys != nil:
		k.keys("", func(id string) bool { return !p.acceptKey(id) || byID(id) })
	default:
		k.each(func(o T) bool {
			cur = o
			return keep()
		})
		slices.SortFunc(out, k.cmp)
	}
	if evalErr != nil {
		return nil, evalErr
	}
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
