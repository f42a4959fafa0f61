package schema

import (
	"fmt"
	"strings"

	"chimera/internal/dtype"
)

// Direction is the directionality of a transformation argument.
type Direction int

const (
	// In marks a dataset argument read by the transformation.
	In Direction = iota
	// Out marks a dataset argument created/written by the transformation.
	Out
	// InOut marks a compound transformation's intermediate dataset, one
	// call writes and a later call reads (App. A's anywhere/somewhere).
	// A simple transformation cannot declare one (Validate): its
	// derivation would bind the dataset as both input and output.
	InOut
	// None marks a by-value string parameter (VDL's "none").
	None
)

var directionNames = map[Direction]string{In: "input", Out: "output", InOut: "inout", None: "none"}

// String returns the VDL keyword for the direction.
func (d Direction) String() string {
	if s, ok := directionNames[d]; ok {
		return s
	}
	return fmt.Sprintf("Direction(%d)", int(d))
}

// ParseDirection parses a VDL direction keyword.
func ParseDirection(s string) (Direction, error) {
	switch strings.ToLower(s) {
	case "input", "in":
		return In, nil
	case "output", "out":
		return Out, nil
	case "inout":
		return InOut, nil
	case "none", "string":
		return None, nil
	}
	return 0, fmt.Errorf("schema: unknown direction %q", s)
}

// Reads reports whether the direction implies the argument is consumed.
func (d Direction) Reads() bool { return d == In || d == InOut }

// Writes reports whether the direction implies the argument is produced.
func (d Direction) Writes() bool { return d == Out || d == InOut }

// MarshalText implements encoding.TextMarshaler.
func (d Direction) MarshalText() ([]byte, error) { return []byte(d.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (d *Direction) UnmarshalText(b []byte) error {
	v, err := ParseDirection(string(b))
	if err != nil {
		return err
	}
	*d = v
	return nil
}

// FormalArg is one formal argument of a transformation's type signature.
type FormalArg struct {
	// Name of the formal argument.
	Name string `json:"name"`
	// Direction: input/output/inout for datasets, none for strings.
	Direction Direction `json:"direction"`
	// Types is the union of dataset types the argument accepts; empty
	// means the untyped "Dataset" for dataset args, and is ignored for
	// None (string) args.
	Types []dtype.Type `json:"types,omitempty"`
	// Default is an optional default value: a literal string for None
	// arguments, or a dataset anchor expression for dataset arguments
	// (compound transformations default intermediates this way).
	Default *Actual `json:"default,omitempty"`
}

// IsDataset reports whether the argument is passed by dataset reference.
func (f FormalArg) IsDataset() bool { return f.Direction != None }

// Accepts reports whether a dataset of type t may be bound to this
// formal under registry r. Formals with an empty type union accept any
// dataset (the untyped "Dataset" base type).
func (f FormalArg) Accepts(r *dtype.Registry, t dtype.Type) bool {
	if !f.IsDataset() {
		return false
	}
	if len(f.Types) == 0 {
		return true
	}
	return r.ConformsUnion(t, f.Types)
}

// TemplatePart is one piece of an argument template: either a literal
// string or a reference to a formal argument.
type TemplatePart struct {
	// Literal text, used when Ref is empty.
	Literal string `json:"literal,omitempty"`
	// Ref names a formal argument whose bound value is substituted.
	Ref string `json:"ref,omitempty"`
	// RefDirection optionally annotates the reference with the
	// direction written in VDL (e.g. ${input:a1}); informational.
	RefDirection string `json:"refDirection,omitempty"`
}

// ArgTemplate describes how one command-line argument (or a stdio
// redirection) of a simple transformation's invocation is assembled
// from literals and formal-argument references.
type ArgTemplate struct {
	// Name of the template; the reserved names "stdin", "stdout" and
	// "stderr" redirect standard streams, anything else (including "")
	// contributes to the command line in declaration order.
	Name string `json:"name,omitempty"`
	// Parts are concatenated after substitution.
	Parts []TemplatePart `json:"parts"`
}

// IsStdio reports whether the template redirects a standard stream.
func (a ArgTemplate) IsStdio() bool {
	return a.Name == "stdin" || a.Name == "stdout" || a.Name == "stderr"
}

// Call is one step of a compound transformation: an invocation of a
// named transformation with bindings from the compound's formals (or
// literals) to the callee's formals.
type Call struct {
	// TR references the called transformation (see ParseTRRef).
	TR string `json:"tr"`
	// Bindings maps callee formal names to value expressions.
	Bindings map[string]Actual `json:"bindings"`
}

// TRKind distinguishes simple (black box) from compound (DAG-composing)
// transformations.
type TRKind int

const (
	// Simple transformations are executable black boxes.
	Simple TRKind = iota
	// Compound transformations compose calls to other transformations
	// into a directed acyclic execution graph.
	Compound
)

// String returns "simple" or "compound".
func (k TRKind) String() string {
	if k == Compound {
		return "compound"
	}
	return "simple"
}

// Transformation is a typed computational procedure. Its identity is
// the triple (namespace, name, version).
type Transformation struct {
	// Namespace scopes the name; "" is the default namespace.
	Namespace string `json:"namespace,omitempty"`
	// Name of the transformation.
	Name string `json:"name"`
	// Version string; "" means unversioned.
	Version string `json:"version,omitempty"`
	// Kind is Simple or Compound.
	Kind TRKind `json:"kind"`
	// Args is the ordered type signature.
	Args []FormalArg `json:"args"`

	// Exec is the executable pathname (simple transformations). The
	// paper's VDL also allows the executable as a profile hint; Exec
	// takes precedence when both are set.
	Exec string `json:"exec,omitempty"`
	// ArgTemplates assemble the command line and stdio redirections
	// (simple transformations).
	ArgTemplates []ArgTemplate `json:"argTemplates,omitempty"`
	// Env maps environment variable names to value templates (simple
	// transformations).
	Env map[string][]TemplatePart `json:"env,omitempty"`
	// Profile carries scheduler/planner hints (e.g. hints.pfnHint).
	Profile map[string]string `json:"profile,omitempty"`

	// Calls is the body of a compound transformation, in declaration
	// order; data dependencies between calls are inferred from shared
	// dataset bindings.
	Calls []Call `json:"calls,omitempty"`

	// Attrs carries user-defined metadata for discovery.
	Attrs Attributes `json:"attrs,omitempty"`
}

// Ref returns the canonical reference "namespace::name:version" with
// empty namespace/version elided.
func (t Transformation) Ref() string {
	return FormatTRRef(t.Namespace, t.Name, t.Version)
}

// FormatTRRef builds a canonical transformation reference.
func FormatTRRef(namespace, name, version string) string {
	var b strings.Builder
	if namespace != "" {
		b.WriteString(namespace)
		b.WriteString("::")
	}
	b.WriteString(name)
	if version != "" {
		b.WriteString(":")
		b.WriteString(version)
	}
	return b.String()
}

// ParseTRRef splits a "namespace::name:version" reference; namespace
// and version may be absent.
func ParseTRRef(ref string) (namespace, name, version string, err error) {
	rest := ref
	if i := strings.Index(rest, "::"); i >= 0 {
		namespace, rest = rest[:i], rest[i+2:]
	}
	if i := strings.LastIndex(rest, ":"); i >= 0 {
		rest, version = rest[:i], rest[i+1:]
		if version == "" {
			return "", "", "", fmt.Errorf("schema: transformation ref %q has empty version", ref)
		}
	}
	name = rest
	if name == "" {
		return "", "", "", fmt.Errorf("schema: transformation ref %q has empty name", ref)
	}
	return namespace, name, version, nil
}

// Formal returns the formal argument with the given name, if any.
func (t Transformation) Formal(name string) (FormalArg, bool) {
	for _, f := range t.Args {
		if f.Name == name {
			return f, true
		}
	}
	return FormalArg{}, false
}

// Inputs returns the names of formals with a reading direction.
func (t Transformation) Inputs() []string { return t.argsWhere(Direction.Reads) }

// Outputs returns the names of formals with a writing direction.
func (t Transformation) Outputs() []string { return t.argsWhere(Direction.Writes) }

func (t Transformation) argsWhere(pred func(Direction) bool) []string {
	var out []string
	for _, f := range t.Args {
		if f.IsDataset() && pred(f.Direction) {
			out = append(out, f.Name)
		}
	}
	return out
}

// Validate checks the transformation's structural invariants: unique
// formal names, templates referencing declared formals, compound calls
// binding only declared names, and kind-appropriate bodies.
func (t Transformation) Validate() error {
	if err := checkLogicalName(t.Name); err != nil {
		return fmt.Errorf("schema: transformation: %w", err)
	}
	seen := make(map[string]bool, len(t.Args))
	for _, f := range t.Args {
		if f.Name == "" {
			return fmt.Errorf("schema: transformation %q has unnamed formal", t.Ref())
		}
		if seen[f.Name] {
			return fmt.Errorf("schema: transformation %q has duplicate formal %q", t.Ref(), f.Name)
		}
		seen[f.Name] = true
		if f.Direction == None && len(f.Types) > 0 {
			return fmt.Errorf("schema: transformation %q: string formal %q cannot carry dataset types", t.Ref(), f.Name)
		}
	}
	switch t.Kind {
	case Simple:
		if len(t.Calls) > 0 {
			return fmt.Errorf("schema: simple transformation %q has calls", t.Ref())
		}
		if t.Exec == "" && t.Profile["hints.pfnHint"] == "" {
			return fmt.Errorf("schema: simple transformation %q has no executable (exec or hints.pfnHint)", t.Ref())
		}
		for _, f := range t.Args {
			if f.Direction == InOut {
				return fmt.Errorf("schema: simple transformation %q: formal %q is inout, which names a compound's intermediate dataset (App. A's anywhere/somewhere); declare it input or output", t.Ref(), f.Name)
			}
		}
		for _, at := range t.ArgTemplates {
			for _, p := range at.Parts {
				if p.Ref != "" && !seen[p.Ref] {
					return fmt.Errorf("schema: transformation %q: template %q references unknown formal %q", t.Ref(), at.Name, p.Ref)
				}
			}
		}
		for name, parts := range t.Env {
			for _, p := range parts {
				if p.Ref != "" && !seen[p.Ref] {
					return fmt.Errorf("schema: transformation %q: env %q references unknown formal %q", t.Ref(), name, p.Ref)
				}
			}
		}
	case Compound:
		if len(t.Calls) == 0 {
			return fmt.Errorf("schema: compound transformation %q has no calls", t.Ref())
		}
		if t.Exec != "" {
			return fmt.Errorf("schema: compound transformation %q has an executable", t.Ref())
		}
		for i, c := range t.Calls {
			if _, _, _, err := ParseTRRef(c.TR); err != nil {
				return fmt.Errorf("schema: compound %q call %d: %w", t.Ref(), i, err)
			}
			for formal, a := range c.Bindings {
				if err := a.Validate(); err != nil {
					return fmt.Errorf("schema: compound %q call %d binding %q: %w", t.Ref(), i, formal, err)
				}
				for _, ref := range a.FormalRefs() {
					if !seen[ref] {
						return fmt.Errorf("schema: compound %q call %d binding %q references unknown formal %q", t.Ref(), i, formal, ref)
					}
				}
			}
		}
	default:
		return fmt.Errorf("schema: transformation %q has invalid kind %d", t.Ref(), int(t.Kind))
	}
	return nil
}
