package query

import (
	"fmt"
	"sort"

	"chimera/internal/catalog"
	"chimera/internal/schema"
)

// runNaive is the reference the planner is held to: range every object
// of the kind in a View, call the expression's matcher on each, sort.
// No indexes, no key tests, no cache.
func runNaive(c *catalog.Catalog, kind Kind, e Expr) (Results, error) {
	v := c.View()
	defer v.Close()
	ctx := newEvalCtx(v)
	var res Results
	var err error
	match := func(o object) (ok bool) {
		ok, err = e.eval(ctx, o)
		return ok && err == nil
	}
	switch kind {
	case KDataset:
		v.RangeDatasets(func(ds schema.Dataset) bool {
			if match(object{kind: kind, ds: &ds}) {
				res.Datasets = append(res.Datasets, ds)
			}
			return err == nil
		})
		sort.Slice(res.Datasets, func(i, j int) bool { return res.Datasets[i].Name < res.Datasets[j].Name })
	case KTransformation:
		v.RangeTransformations(func(tr schema.Transformation) bool {
			if match(object{kind: kind, tr: &tr}) {
				res.Transformations = append(res.Transformations, tr)
			}
			return err == nil
		})
		sort.Slice(res.Transformations, func(i, j int) bool { return res.Transformations[i].Ref() < res.Transformations[j].Ref() })
	case KDerivation:
		v.RangeDerivations(func(dv schema.Derivation) bool {
			if match(object{kind: kind, dv: &dv}) {
				res.Derivations = append(res.Derivations, dv)
			}
			return err == nil
		})
		sort.Slice(res.Derivations, func(i, j int) bool { return res.Derivations[i].ID < res.Derivations[j].ID })
	default:
		err = fmt.Errorf("query: invalid kind %d", int(kind))
	}
	if err != nil {
		return Results{}, err
	}
	return res, nil
}
