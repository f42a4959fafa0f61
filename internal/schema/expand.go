package schema

import (
	"fmt"
	"strconv"
	"strings"
)

// Resolver looks up a transformation by its canonical reference.
type Resolver func(ref string) (Transformation, error)

// ExpandDerivation flattens a derivation of a (possibly compound)
// transformation into the list of simple-transformation derivations
// that execute it, in call order. A derivation of a simple
// transformation expands to itself.
//
// Unbound compound formals take their declared defaults. Dataset-anchor
// defaults name *intermediate* datasets; to keep two expansions of the
// same compound from colliding, the intermediate LFN is suffixed with a
// fragment of the parent derivation's signature — deterministic, so
// re-expanding the same derivation yields the same names (and therefore
// the same child signatures, preserving duplicate detection).
//
// Cycles among compound transformations are detected and reported.
func ExpandDerivation(dv Derivation, resolve Resolver) ([]Derivation, error) {
	dv = dv.Canonicalize()
	return expand(dv, resolve, nil)
}

func expand(dv Derivation, resolve Resolver, path []string) ([]Derivation, error) {
	tr, err := resolve(dv.TR)
	if err != nil {
		return nil, fmt.Errorf("schema: expand %s: %w", dv.TR, err)
	}
	if err := dv.CheckBinding(tr); err != nil {
		return nil, err
	}
	if tr.Kind == Simple {
		return []Derivation{dv}, nil
	}
	for _, p := range path {
		if p == dv.TR {
			return nil, fmt.Errorf("schema: compound transformation cycle through %s (path %s)", dv.TR, strings.Join(path, " -> "))
		}
	}
	path = append(path, dv.TR)

	// Build the binding environment: actuals for every formal, with
	// defaults applied and intermediate dataset names uniquified.
	env := make(map[string]Actual, len(tr.Args))
	suffix := intermediateSuffix(dv.ID)
	for _, f := range tr.Args {
		a, bound := dv.Params[f.Name]
		if !bound {
			if f.Default == nil {
				return nil, &BindingError{dv.Name, f.Name, "unbound and has no default"}
			}
			a = *f.Default
			if a.Kind == ADataset {
				a.Value = a.Value + "." + suffix
			}
		}
		env[f.Name] = a
	}

	var out []Derivation
	for i, call := range tr.Calls {
		child := Derivation{
			TR:     call.TR,
			Params: make(map[string]Actual, len(call.Bindings)),
			Env:    dv.Env,
			Parent: dv.ID,
		}
		if dv.Name != "" {
			child.Name = dv.Name + "." + strconv.Itoa(i)
		}
		for formal, a := range call.Bindings {
			resolved, err := substituteActual(a, env)
			if err != nil {
				return nil, fmt.Errorf("schema: expand %s call %d binding %q: %w", dv.TR, i, formal, err)
			}
			child.Params[formal] = resolved
		}
		child = child.Canonicalize()
		leaves, err := expand(child, resolve, path)
		if err != nil {
			return nil, err
		}
		out = append(out, leaves...)
	}
	return out, nil
}

// ExpansionSize returns a counter of the derivations ExpandDerivation
// visits for a derivation of a transformation: the derivation itself,
// each compound call it passes through and each leaf. The count depends
// on the call graph alone, not on the bindings, so the counter resolves
// each transformation once however many leaves a nest of compounds
// makes (40 compounds each calling the next twice make 2^40), and a
// loader can refuse a program before expanding any of it. Counts
// saturate at limit+1. An unresolvable reference counts one, and a
// cycle is left to ExpandDerivation to report.
func ExpansionSize(resolve Resolver, limit int) func(ref string) int {
	sizes := make(map[string]int)
	var size func(ref string) int
	size = func(ref string) int {
		if n, ok := sizes[ref]; ok {
			return n
		}
		sizes[ref] = 1 // while in progress, so a cycle ends
		n := 1
		if tr, err := resolve(ref); err == nil {
			for _, call := range tr.Calls {
				n = min(n+size(call.TR), limit+1)
			}
		}
		sizes[ref] = n
		return n
	}
	return size
}

// intermediateSuffix derives a short, collision-resistant suffix for
// intermediate dataset names from a derivation signature.
func intermediateSuffix(id string) string {
	s := strings.TrimPrefix(id, "dv-")
	if len(s) > 10 {
		s = s[:10]
	}
	return s
}

// substituteActual replaces formal references in a with the actuals
// bound in env. A reference substituted inside a list is flattened if
// it resolves to a list.
func substituteActual(a Actual, env map[string]Actual) (Actual, error) {
	switch a.Kind {
	case AString, ADataset:
		return a, nil
	case AFormalRef:
		v, ok := env[a.Value]
		if !ok {
			return Actual{}, fmt.Errorf("reference to unknown formal %q", a.Value)
		}
		// A direction annotation on the reference (e.g. ${output:a4})
		// narrows how the callee uses the dataset; the dataset anchor
		// keeps its identity but adopts the annotated direction so
		// CheckBinding can verify it against the callee's formal.
		if a.Direction != "" && v.Kind == ADataset {
			v.Direction = a.Direction
		}
		return v, nil
	case AList:
		out := Actual{Kind: AList}
		for _, e := range a.List {
			r, err := substituteActual(e, env)
			if err != nil {
				return Actual{}, err
			}
			if r.Kind == AList {
				out.List = append(out.List, r.List...)
			} else {
				out.List = append(out.List, r)
			}
		}
		return out, nil
	default:
		return Actual{}, fmt.Errorf("invalid actual kind %d", int(a.Kind))
	}
}

// MapResolver builds a Resolver over a fixed set of transformations,
// keyed by canonical ref. When a ref omits the version, the resolver
// falls back to an unversioned entry with the same namespace and name.
func MapResolver(trs ...Transformation) Resolver {
	byRef := make(map[string]Transformation, len(trs))
	for _, tr := range trs {
		byRef[tr.Ref()] = tr
	}
	return func(ref string) (Transformation, error) {
		if tr, ok := byRef[ref]; ok {
			return tr, nil
		}
		return Transformation{}, fmt.Errorf("unknown transformation %q", ref)
	}
}
