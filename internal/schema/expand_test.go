package schema

import (
	"reflect"
	"strings"
	"testing"
)

func simpleTR(name string, outs, ins int) Transformation {
	tr := Transformation{Name: name, Kind: Simple, Exec: "/usr/bin/" + name}
	for i := 0; i < outs; i++ {
		tr.Args = append(tr.Args, FormalArg{Name: "o" + itoa(i), Direction: Out})
	}
	for i := 0; i < ins; i++ {
		tr.Args = append(tr.Args, FormalArg{Name: "i" + itoa(i), Direction: In})
	}
	return tr
}

func itoa(i int) string {
	b := []byte{}
	if i == 0 {
		return "0"
	}
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

// paperTrans4 reconstructs Appendix A's compound trans4 using the
// simple two-arg transformations trans1..trans3.
func paperTrans4() []Transformation {
	trans1 := Transformation{Name: "trans1", Kind: Simple, Exec: "/usr/bin/app1",
		Args: []FormalArg{{Name: "a2", Direction: Out}, {Name: "a1", Direction: In}}}
	trans2 := Transformation{Name: "trans2", Kind: Simple, Exec: "/usr/bin/app2",
		Args: []FormalArg{{Name: "a2", Direction: Out}, {Name: "a1", Direction: In}}}
	trans3 := Transformation{Name: "trans3", Kind: Simple, Exec: "/usr/bin/app3",
		Args: []FormalArg{{Name: "a2", Direction: In}, {Name: "a1", Direction: In}, {Name: "a3", Direction: Out}}}
	trans4 := Transformation{Name: "trans4", Kind: Compound,
		Args: []FormalArg{
			{Name: "a2", Direction: In},
			{Name: "a1", Direction: In},
			{Name: "a5", Direction: InOut, Default: ptr(DatasetActual("inout", "anywhere"))},
			{Name: "a4", Direction: InOut, Default: ptr(DatasetActual("inout", "somewhere"))},
			{Name: "a3", Direction: Out},
		},
		Calls: []Call{
			{TR: "trans1", Bindings: map[string]Actual{"a2": refWithDir("output", "a4"), "a1": FormalRefActual("a1")}},
			{TR: "trans2", Bindings: map[string]Actual{"a2": refWithDir("output", "a5"), "a1": FormalRefActual("a2")}},
			{TR: "trans3", Bindings: map[string]Actual{"a2": refWithDir("input", "a5"), "a1": refWithDir("input", "a4"), "a3": refWithDir("output", "a3")}},
		}}
	return []Transformation{trans1, trans2, trans3, trans4}
}

func refWithDir(dir, name string) Actual {
	a := FormalRefActual(name)
	a.Direction = dir
	return a
}

func TestExpandSimpleIsIdentity(t *testing.T) {
	tr := simpleTR("t", 1, 1)
	dv := Derivation{Name: "d", TR: "t", Params: map[string]Actual{
		"o0": DatasetActual("output", "out"),
		"i0": DatasetActual("input", "in"),
	}}.Canonicalize()
	got, err := ExpandDerivation(dv, MapResolver(tr))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !reflect.DeepEqual(got[0], dv) {
		t.Errorf("expand simple: %+v", got)
	}
}

func TestExpandPaperTrans4(t *testing.T) {
	trs := paperTrans4()
	dv := Derivation{Name: "run", TR: "trans4", Params: map[string]Actual{
		"a2": DatasetActual("input", "in2"),
		"a1": DatasetActual("input", "in1"),
		"a3": DatasetActual("output", "final"),
	}}.Canonicalize()
	leaves, err := ExpandDerivation(dv, MapResolver(trs...))
	if err != nil {
		t.Fatal(err)
	}
	if len(leaves) != 3 {
		t.Fatalf("got %d leaves", len(leaves))
	}
	// Call order preserved.
	if leaves[0].TR != "trans1" || leaves[1].TR != "trans2" || leaves[2].TR != "trans3" {
		t.Errorf("order: %s %s %s", leaves[0].TR, leaves[1].TR, leaves[2].TR)
	}
	// Intermediates are uniquified but shared across calls.
	a4name := leaves[0].Params["a2"].Value
	if !strings.HasPrefix(a4name, "somewhere.") {
		t.Errorf("intermediate a4: %q", a4name)
	}
	if leaves[2].Params["a1"].Value != a4name {
		t.Errorf("trans3 should read the same intermediate: %q vs %q", leaves[2].Params["a1"].Value, a4name)
	}
	a5name := leaves[1].Params["a2"].Value
	if !strings.HasPrefix(a5name, "anywhere.") || leaves[2].Params["a2"].Value != a5name {
		t.Errorf("intermediate a5 wiring: %q, %q", a5name, leaves[2].Params["a2"].Value)
	}
	// Passthroughs resolve to the parent's actuals.
	if leaves[0].Params["a1"].Value != "in1" || leaves[1].Params["a1"].Value != "in2" {
		t.Errorf("passthrough: %+v", leaves)
	}
	if leaves[2].Params["a3"].Value != "final" {
		t.Errorf("final output: %+v", leaves[2].Params["a3"])
	}
	// Children carry parent linkage and derived names.
	for i, l := range leaves {
		if l.Parent != dv.ID {
			t.Errorf("leaf %d parent = %q", i, l.Parent)
		}
		if l.Name != "run."+itoa(i) {
			t.Errorf("leaf %d name = %q", i, l.Name)
		}
		if l.ID == "" {
			t.Errorf("leaf %d not canonicalized", i)
		}
	}
}

func TestExpandDeterministic(t *testing.T) {
	trs := paperTrans4()
	dv := Derivation{TR: "trans4", Params: map[string]Actual{
		"a2": DatasetActual("input", "x2"),
		"a1": DatasetActual("input", "x1"),
		"a3": DatasetActual("output", "y"),
	}}
	l1, err := ExpandDerivation(dv, MapResolver(trs...))
	if err != nil {
		t.Fatal(err)
	}
	l2, err := ExpandDerivation(dv, MapResolver(trs...))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(l1, l2) {
		t.Error("expansion not deterministic")
	}
	// Different parent params → different intermediates.
	dv2 := Derivation{TR: "trans4", Params: map[string]Actual{
		"a2": DatasetActual("input", "x2"),
		"a1": DatasetActual("input", "OTHER"),
		"a3": DatasetActual("output", "y2"),
	}}
	l3, err := ExpandDerivation(dv2, MapResolver(trs...))
	if err != nil {
		t.Fatal(err)
	}
	if l1[0].Params["a2"].Value == l3[0].Params["a2"].Value {
		t.Error("intermediates collide across distinct expansions")
	}
}

func TestExpandNestedCompound(t *testing.T) {
	trs := paperTrans4()
	trans5 := Transformation{Name: "trans5", Kind: Compound,
		Args: []FormalArg{
			{Name: "a2", Direction: In},
			{Name: "a1", Direction: In},
			{Name: "a4", Direction: InOut, Default: ptr(DatasetActual("inout", "someplace"))},
			{Name: "a3", Direction: Out},
		},
		Calls: []Call{
			{TR: "trans1", Bindings: map[string]Actual{"a2": refWithDir("output", "a4"), "a1": FormalRefActual("a1")}},
			{TR: "trans4", Bindings: map[string]Actual{"a2": refWithDir("input", "a4"), "a1": FormalRefActual("a2"), "a3": FormalRefActual("a3")}},
		}}
	dv := Derivation{Name: "n", TR: "trans5", Params: map[string]Actual{
		"a2": DatasetActual("input", "in2"),
		"a1": DatasetActual("input", "in1"),
		"a3": DatasetActual("output", "out"),
	}}
	leaves, err := ExpandDerivation(dv, MapResolver(append(trs, trans5)...))
	if err != nil {
		t.Fatal(err)
	}
	// trans1 + (trans1,trans2,trans3) = 4 leaves, all simple.
	if len(leaves) != 4 {
		t.Fatalf("got %d leaves: %+v", len(leaves), leaves)
	}
	for _, l := range leaves {
		if l.TR == "trans4" || l.TR == "trans5" {
			t.Errorf("compound leaked into leaves: %s", l.TR)
		}
	}
	// someplace intermediate flows from trans1 output into trans4's input.
	someplace := leaves[0].Params["a2"].Value
	if !strings.HasPrefix(someplace, "someplace.") {
		t.Errorf("outer intermediate: %q", someplace)
	}
	if leaves[2].Params["a1"].Value != someplace {
		t.Errorf("inner trans2 should read outer intermediate via trans4.a2... got %q want %q", leaves[2].Params["a1"].Value, someplace)
	}
}

func TestExpandCycleDetected(t *testing.T) {
	a := Transformation{Name: "a", Kind: Compound,
		Args:  []FormalArg{{Name: "x", Direction: In}},
		Calls: []Call{{TR: "b", Bindings: map[string]Actual{"x": FormalRefActual("x")}}}}
	b := Transformation{Name: "b", Kind: Compound,
		Args:  []FormalArg{{Name: "x", Direction: In}},
		Calls: []Call{{TR: "a", Bindings: map[string]Actual{"x": FormalRefActual("x")}}}}
	dv := Derivation{TR: "a", Params: map[string]Actual{"x": DatasetActual("input", "d")}}
	_, err := ExpandDerivation(dv, MapResolver(a, b))
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("cycle not detected: %v", err)
	}
}

func TestExpandErrors(t *testing.T) {
	trs := paperTrans4()
	// Unknown TR.
	_, err := ExpandDerivation(Derivation{TR: "ghost"}, MapResolver(trs...))
	if err == nil {
		t.Error("unknown TR accepted")
	}
	// Missing required binding.
	dv := Derivation{TR: "trans4", Params: map[string]Actual{"a1": DatasetActual("input", "x")}}
	if _, err := ExpandDerivation(dv, MapResolver(trs...)); err == nil {
		t.Error("missing binding accepted")
	}
	// Call referencing unknown formal (corrupt compound).
	bad := trs[3]
	bad.Calls = append([]Call{}, bad.Calls...)
	bad.Calls[0] = Call{TR: "trans1", Bindings: map[string]Actual{"a2": FormalRefActual("ghost"), "a1": FormalRefActual("a1")}}
	dv = Derivation{TR: "trans4", Params: map[string]Actual{
		"a2": DatasetActual("input", "x2"), "a1": DatasetActual("input", "x1"), "a3": DatasetActual("output", "y"),
	}}
	if _, err := ExpandDerivation(dv, MapResolver(trs[0], trs[1], trs[2], bad)); err == nil {
		t.Error("dangling formal ref in call accepted")
	}
}

func TestExpandListFlattening(t *testing.T) {
	inner := Transformation{Name: "many", Kind: Simple, Exec: "/bin/m",
		Args: []FormalArg{{Name: "ins", Direction: In}, {Name: "out", Direction: Out}}}
	comp := Transformation{Name: "c", Kind: Compound,
		Args: []FormalArg{{Name: "files", Direction: In}, {Name: "out", Direction: Out}},
		Calls: []Call{{TR: "many", Bindings: map[string]Actual{
			"ins": ListActual(FormalRefActual("files"), DatasetActual("input", "extra")),
			"out": FormalRefActual("out"),
		}}}}
	dv := Derivation{TR: "c", Params: map[string]Actual{
		"files": ListActual(DatasetActual("input", "f1"), DatasetActual("input", "f2")),
		"out":   DatasetActual("output", "o"),
	}}
	leaves, err := ExpandDerivation(dv, MapResolver(inner, comp))
	if err != nil {
		t.Fatal(err)
	}
	got := leaves[0].Params["ins"].Datasets()
	if !reflect.DeepEqual(got, []string{"f1", "f2", "extra"}) {
		t.Errorf("flattened list: %v", got)
	}
}

// TestExpansionSize: the counter equals what ExpandDerivation visits
// (the derivation, its compound calls and its leaves), saturates past
// the limit without walking a nest of compounds leaf by leaf, and ends
// on a cycle.
func TestExpansionSize(t *testing.T) {
	trs := paperTrans4()
	dv := Derivation{TR: "trans4", Params: map[string]Actual{
		"a2": DatasetActual("input", "x2"), "a1": DatasetActual("input", "x1"), "a3": DatasetActual("output", "y"),
	}}
	leaves, err := ExpandDerivation(dv, MapResolver(trs...))
	if err != nil {
		t.Fatal(err)
	}
	size := ExpansionSize(MapResolver(trs...), 100)
	for ref, want := range map[string]int{"trans1": 1, "trans4": 1 + len(leaves), "ghost": 1} {
		if got := size(ref); got != want {
			t.Errorf("size(%s) = %d, want %d", ref, got, want)
		}
	}

	// c39 calls c38 twice, ..., c0 calls trans1 twice: 2^41-1 visits.
	nest := []Transformation{trs[0]}
	callee := "trans1"
	for i := 0; i < 40; i++ {
		name := "c" + strings.Repeat("x", i)
		nest = append(nest, Transformation{Name: name, Kind: Compound,
			Calls: []Call{{TR: callee}, {TR: callee}}})
		callee = name
	}
	resolves := 0
	res := MapResolver(nest...)
	counted := ExpansionSize(func(ref string) (Transformation, error) { resolves++; return res(ref) }, 1000)
	if got := counted(callee); got != 1001 {
		t.Errorf("nest: %d, want the limit+1 = 1001", got)
	}
	if resolves != len(nest) {
		t.Errorf("nest of %d transformations resolved %d times", len(nest), resolves)
	}

	a := Transformation{Name: "a", Kind: Compound, Calls: []Call{{TR: "b"}}}
	b := Transformation{Name: "b", Kind: Compound, Calls: []Call{{TR: "a"}}}
	if got := ExpansionSize(MapResolver(a, b), 100)("a"); got > 101 {
		t.Errorf("cycle: %d", got)
	}
}
