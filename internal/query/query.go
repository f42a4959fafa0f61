// Package query implements the discovery facet of the virtual data
// grid: a small predicate language evaluated against a virtual data
// catalog, covering conventional metadata search plus the paper's "added
// wrinkle" that attributes of interest may refer to derivation
// relationships (ancestry, consumption, production) and to whether data
// exists as bytes or only as a recipe.
//
// Example queries:
//
//	type <= CMS and attr.owner = "annis" and not materialized
//	name ~ "run1.*" and descendantof(raw07)
//	kind = compound or output <= FITS-file
//	tr = sdss::brgSearch and executed
//
// One grammar serves the three searchable object classes; predicates
// that do not apply to a class simply evaluate false for it.
package query

import (
	"context"
	"fmt"
	"path"
	"strings"

	"chimera/internal/catalog"
	"chimera/internal/dtype"
	"chimera/internal/schema"
)

// Kind selects the object class a query runs against.
type Kind int

const (
	// KDataset searches datasets.
	KDataset Kind = iota
	// KTransformation searches transformations.
	KTransformation
	// KDerivation searches derivations.
	KDerivation
)

// Expr is a parsed query expression.
type Expr interface {
	// eval evaluates the expression against one object in context.
	eval(ctx *evalCtx, obj object) (bool, error)
	// String renders the expression in re-parseable form.
	String() string
}

// object is the uniform view of a searchable catalog object.
type object struct {
	kind Kind
	ds   *schema.Dataset
	tr   *schema.Transformation
	dv   *schema.Derivation
}

func (o object) name() string {
	switch o.kind {
	case KDataset:
		return o.ds.Name
	case KTransformation:
		return o.tr.Ref()
	default:
		if o.dv.Name != "" {
			return o.dv.Name
		}
		return o.dv.ID
	}
}

func (o object) attrs() schema.Attributes {
	switch o.kind {
	case KDataset:
		return o.ds.Attrs
	case KTransformation:
		return o.tr.Attrs
	default:
		return o.dv.Attrs
	}
}

// evalCtx carries the snapshot a query runs against and caches closure
// lookups during the run. Everything flows through the catalog View, so
// one query takes the catalog lock exactly once (Run acquires it,
// Close releases it) instead of once per object per predicate.
type evalCtx struct {
	view *catalog.View
	// descCache and ancCache memoize provenance closures keyed by
	// dataset.
	descCache map[string]catalog.IndexParts
	ancCache  map[string]catalog.IndexParts
}

func newEvalCtx(v *catalog.View) *evalCtx {
	return &evalCtx{
		view:      v,
		descCache: make(map[string]catalog.IndexParts),
		ancCache:  make(map[string]catalog.IndexParts),
	}
}

func (ctx *evalCtx) descendants(ds string) (catalog.IndexParts, error) {
	return closureSet(ctx.descCache, ds, ctx.view.Descendants)
}

func (ctx *evalCtx) ancestors(ds string) (catalog.IndexParts, error) {
	return closureSet(ctx.ancCache, ds, ctx.view.Ancestors)
}

// closureSet returns the datasets of walk(ds), memoized in cache.
func closureSet(cache map[string]catalog.IndexParts, ds string, walk func(string) (catalog.Closure, error)) (catalog.IndexParts, error) {
	if set, ok := cache[ds]; ok {
		return set, nil
	}
	cl, err := walk(ds)
	if err != nil {
		return catalog.IndexParts{}, err
	}
	set := catalog.SetOf(cl.Datasets...)
	cache[ds] = set
	return set, nil
}

// Results of a query run.
type Results struct {
	Datasets        []schema.Dataset
	Transformations []schema.Transformation
	Derivations     []schema.Derivation
}

// Run evaluates the expression against every object of the given kind
// in the catalog, using the predicate planner: indexable conjuncts
// resolve to candidate sets from the catalog's secondary indexes and
// only the residual predicates are evaluated per candidate. Queries
// with no indexable conjunct fall back to a snapshot scan.
func Run(c *catalog.Catalog, kind Kind, e Expr) (Results, error) {
	return run(context.Background(), c, kind, e)
}

// RunContext is Run under a caller context: when the context carries a
// tracer, the execution records a query span (planner path, candidate
// count) into the caller's trace.
func RunContext(ctx context.Context, c *catalog.Catalog, kind Kind, e Expr) (Results, error) {
	return run(ctx, c, kind, e)
}

// Search parses and runs a query in one step.
func Search(c *catalog.Catalog, kind Kind, src string) (Results, error) {
	return SearchContext(context.Background(), c, kind, src)
}

// SearchContext parses and runs a query in one step under ctx.
func SearchContext(ctx context.Context, c *catalog.Catalog, kind Kind, src string) (Results, error) {
	e, err := Parse(src)
	if err != nil {
		return Results{}, err
	}
	return RunContext(ctx, c, kind, e)
}

// --- Expression nodes --------------------------------------------------

type andExpr struct{ l, r Expr }

func (e andExpr) eval(ctx *evalCtx, o object) (bool, error) {
	ok, err := e.l.eval(ctx, o)
	if err != nil || !ok {
		return false, err
	}
	return e.r.eval(ctx, o)
}

func (e andExpr) String() string { return fmt.Sprintf("(%s and %s)", e.l, e.r) }

type orExpr struct{ l, r Expr }

func (e orExpr) eval(ctx *evalCtx, o object) (bool, error) {
	ok, err := e.l.eval(ctx, o)
	if err != nil || ok {
		return ok, err
	}
	return e.r.eval(ctx, o)
}

func (e orExpr) String() string { return fmt.Sprintf("(%s or %s)", e.l, e.r) }

type notExpr struct{ e Expr }

func (e notExpr) eval(ctx *evalCtx, o object) (bool, error) {
	ok, err := e.e.eval(ctx, o)
	return !ok, err
}

func (e notExpr) String() string { return fmt.Sprintf("not %s", e.e) }

// cmpOp is a comparison operator on strings.
type cmpOp int

const (
	opEq cmpOp = iota
	opNe
	opMatch // glob pattern match (~)
)

func (op cmpOp) String() string {
	switch op {
	case opNe:
		return "!="
	case opMatch:
		return "~"
	default:
		return "="
	}
}

// strCmp is one string comparison, compiled at Parse: a `~` pattern is
// validated there and its literal prefix split off, so evaluation cannot
// fail and most non-matching strings are rejected by a prefix compare
// before path.Match runs.
type strCmp struct {
	op     cmpOp
	val    string
	prefix string // opMatch only: the pattern's bytes before its first metacharacter
}

func newStrCmp(op cmpOp, val string) (strCmp, error) {
	c := strCmp{op: op, val: val}
	if op != opMatch {
		return c, nil
	}
	if _, err := path.Match(val, ""); err != nil {
		return strCmp{}, fmt.Errorf("query: bad pattern %q: %w", val, err)
	}
	c.prefix = val
	if i := strings.IndexAny(val, `*?[\`); i >= 0 {
		c.prefix = val[:i]
	}
	return c, nil
}

func (c strCmp) String() string { return c.op.String() + " " + quote(c.val) }

func (c strCmp) test(s string) bool {
	switch c.op {
	case opEq:
		return s == c.val
	case opNe:
		return s != c.val
	}
	if !strings.HasPrefix(s, c.prefix) {
		return false
	}
	ok, _ := path.Match(c.val, s) // the only error is a bad pattern, rejected by newStrCmp
	return ok
}

// namePred compares the object's name.
type namePred struct{ cmp strCmp }

func (p namePred) eval(_ *evalCtx, o object) (bool, error) { return p.cmp.test(o.name()), nil }
func (p namePred) String() string                          { return "name " + p.cmp.String() }

// attrPred compares a metadata attribute.
type attrPred struct {
	key string
	cmp strCmp
}

func (p attrPred) eval(_ *evalCtx, o object) (bool, error) {
	v, ok := o.attrs()[p.key]
	return ok && p.cmp.test(v), nil
}

func (p attrPred) String() string { return "attr." + p.key + " " + p.cmp.String() }

// typePred tests dataset-type conformance: for datasets, the dataset's
// own type; for transformations, whether any input (or output, when
// output is set) formal accepts the type.
type typePred struct {
	t      dtype.Type
	output bool // for transformations: match output formals instead
	field  string
}

func (p typePred) eval(ctx *evalCtx, o object) (bool, error) {
	reg := ctx.view.Types()
	switch o.kind {
	case KDataset:
		if p.field != "type" {
			return false, nil
		}
		return reg.Conforms(o.ds.Type, p.t), nil
	case KTransformation:
		for _, f := range o.tr.Args {
			if !f.IsDataset() {
				continue
			}
			if p.output && !f.Direction.Writes() {
				continue
			}
			if !p.output && p.field == "input" && !f.Direction.Reads() {
				continue
			}
			if len(f.Types) == 0 {
				if p.t.IsUniversal() {
					return true, nil
				}
				continue
			}
			for _, ft := range f.Types {
				if reg.Conforms(ft, p.t) {
					return true, nil
				}
			}
		}
		return false, nil
	default:
		return false, nil
	}
}

func (p typePred) String() string { return p.field + " <= " + quote(p.t.String()) }

// flagPred tests boolean object properties.
type flagPred struct{ flag string }

func (p flagPred) eval(ctx *evalCtx, o object) (bool, error) {
	switch p.flag {
	case "derived":
		return o.kind == KDataset && o.ds.CreatedBy != "", nil
	case "materialized":
		return o.kind == KDataset && ctx.view.Materialized(o.ds.Name), nil
	case "virtual":
		// Exists only as a recipe: derived but not materialized.
		return o.kind == KDataset && o.ds.CreatedBy != "" && !ctx.view.Materialized(o.ds.Name), nil
	case "executed":
		// Set membership, not a copy of the invocation records.
		return o.kind == KDerivation && ctx.view.HasInvocations(o.dv.ID), nil
	case "compound":
		return o.kind == KTransformation && o.tr.Kind == schema.Compound, nil
	case "simple":
		return o.kind == KTransformation && o.tr.Kind == schema.Simple, nil
	}
	return false, fmt.Errorf("query: unknown flag %q", p.flag)
}

func (p flagPred) String() string { return p.flag }

// trPred matches derivations of a transformation (exact ref, or any
// version of ns::name when the ref is unversioned).
type trPred struct{ ref string }

func (p trPred) eval(_ *evalCtx, o object) (bool, error) {
	if o.kind != KDerivation {
		return false, nil
	}
	if o.dv.TR == p.ref {
		return true, nil
	}
	ns1, n1, _, err1 := schema.ParseTRRef(o.dv.TR)
	ns2, n2, v2, err2 := schema.ParseTRRef(p.ref)
	if err1 != nil || err2 != nil {
		return false, nil
	}
	return v2 == "" && ns1 == ns2 && n1 == n2, nil
}

func (p trPred) String() string { return "tr = " + renderValue(p.ref) }

// relPred tests derivation relationships.
type relPred struct {
	rel string // "descendantof", "ancestorof", "consumes", "produces"
	ds  string
}

func (p relPred) eval(ctx *evalCtx, o object) (bool, error) {
	switch p.rel {
	case "descendantof":
		if o.kind != KDataset {
			return false, nil
		}
		set, err := ctx.descendants(p.ds)
		if err != nil {
			return false, err
		}
		return set.Has(o.ds.Name), nil
	case "ancestorof":
		if o.kind != KDataset {
			return false, nil
		}
		set, err := ctx.ancestors(p.ds)
		if err != nil {
			return false, err
		}
		return set.Has(o.ds.Name), nil
	case "consumes":
		// Membership against the snapshot's IO index: no DerivationIO
		// slice copies, no extra lock round-trip.
		return o.kind == KDerivation && ctx.view.Consumes(o.dv.ID, p.ds), nil
	case "produces":
		return o.kind == KDerivation && ctx.view.Produces(o.dv.ID, p.ds), nil
	}
	return false, fmt.Errorf("query: unknown relationship %q", p.rel)
}

func (p relPred) String() string { return p.rel + "(" + renderValue(p.ds) + ")" }

// truePred matches everything ("*").
type truePred struct{}

func (truePred) eval(*evalCtx, object) (bool, error) { return true, nil }
func (truePred) String() string                      { return "*" }

// All is the expression matching every object.
var All Expr = truePred{}
