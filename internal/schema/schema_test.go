package schema

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"chimera/internal/dtype"
)

func TestDirectionRoundTrip(t *testing.T) {
	for _, d := range []Direction{In, Out, InOut, None} {
		got, err := ParseDirection(d.String())
		if err != nil || got != d {
			t.Errorf("direction %v round trip: %v, %v", d, got, err)
		}
	}
	if _, err := ParseDirection("sideways"); err == nil {
		t.Error("bad direction accepted")
	}
	if got, _ := ParseDirection("in"); got != In {
		t.Error("short form 'in' not accepted")
	}
	if !In.Reads() || In.Writes() || !Out.Writes() || Out.Reads() {
		t.Error("reads/writes predicates wrong")
	}
	if !InOut.Reads() || !InOut.Writes() || None.Reads() || None.Writes() {
		t.Error("inout/none predicates wrong")
	}
}

func TestTRRef(t *testing.T) {
	cases := []struct {
		ns, name, ver string
		want          string
	}{
		{"", "t1", "", "t1"},
		{"example1", "t1", "", "example1::t1"},
		{"", "t1", "2.0", "t1:2.0"},
		{"hep", "sim", "1.3", "hep::sim:1.3"},
	}
	for _, c := range cases {
		ref := FormatTRRef(c.ns, c.name, c.ver)
		if ref != c.want {
			t.Errorf("FormatTRRef(%q,%q,%q) = %q, want %q", c.ns, c.name, c.ver, ref, c.want)
		}
		ns, name, ver, err := ParseTRRef(ref)
		if err != nil || ns != c.ns || name != c.name || ver != c.ver {
			t.Errorf("ParseTRRef(%q) = %q,%q,%q,%v", ref, ns, name, ver, err)
		}
	}
	for _, bad := range []string{"", "ns::", "name:", "::"} {
		if _, _, _, err := ParseTRRef(bad); err == nil {
			t.Errorf("ParseTRRef(%q) accepted", bad)
		}
	}
}

// t1FromPaper builds the paper's Appendix A example transformation.
func t1FromPaper() Transformation {
	return Transformation{
		Name: "t1",
		Kind: Simple,
		Args: []FormalArg{
			{Name: "a2", Direction: Out},
			{Name: "a1", Direction: In},
			{Name: "env", Direction: None, Default: ptr(StringActual("100000"))},
			{Name: "pa", Direction: None, Default: ptr(StringActual("500"))},
		},
		Exec: "/usr/bin/app3",
		ArgTemplates: []ArgTemplate{
			{Name: "parg", Parts: []TemplatePart{{Literal: "-p "}, {Ref: "pa", RefDirection: "none"}}},
			{Name: "farg", Parts: []TemplatePart{{Literal: "-f "}, {Ref: "a1", RefDirection: "input"}}},
			{Name: "xarg", Parts: []TemplatePart{{Literal: "-x -y "}}},
			{Name: "stdout", Parts: []TemplatePart{{Ref: "a2", RefDirection: "output"}}},
		},
		Env: map[string][]TemplatePart{"MAXMEM": {{Ref: "env", RefDirection: "none"}}},
	}
}

func ptr[T any](v T) *T { return &v }

func TestTransformationValidate(t *testing.T) {
	tr := t1FromPaper()
	if err := tr.Validate(); err != nil {
		t.Fatalf("paper example rejected: %v", err)
	}

	bad := tr
	bad.Args = append([]FormalArg{}, tr.Args...)
	bad.Args = append(bad.Args, FormalArg{Name: "a1", Direction: In})
	if err := bad.Validate(); err == nil {
		t.Error("duplicate formal accepted")
	}

	bad = tr
	bad.Exec = ""
	if err := bad.Validate(); err == nil {
		t.Error("simple TR with no exec accepted")
	}
	bad.Profile = map[string]string{"hints.pfnHint": "/usr/bin/app1"}
	if err := bad.Validate(); err != nil {
		t.Errorf("pfnHint should satisfy executable requirement: %v", err)
	}

	bad = tr
	bad.ArgTemplates = []ArgTemplate{{Parts: []TemplatePart{{Ref: "ghost"}}}}
	if err := bad.Validate(); err == nil {
		t.Error("template referencing unknown formal accepted")
	}

	bad = tr
	bad.Env = map[string][]TemplatePart{"X": {{Ref: "ghost"}}}
	if err := bad.Validate(); err == nil {
		t.Error("env referencing unknown formal accepted")
	}

	bad = tr
	bad.Args[2].Types = []dtype.Type{{Content: "CMS"}}
	if err := bad.Validate(); err == nil {
		t.Error("string formal with dataset types accepted")
	}
}

func trans4FromPaper() Transformation {
	return Transformation{
		Name: "trans4",
		Kind: Compound,
		Args: []FormalArg{
			{Name: "a2", Direction: In},
			{Name: "a1", Direction: In},
			{Name: "a5", Direction: InOut, Default: ptr(DatasetActual("inout", "anywhere"))},
			{Name: "a4", Direction: InOut, Default: ptr(DatasetActual("inout", "somewhere"))},
			{Name: "a3", Direction: Out},
		},
		Calls: []Call{
			{TR: "trans1", Bindings: map[string]Actual{"a2": FormalRefActual("a4"), "a1": FormalRefActual("a1")}},
			{TR: "trans2", Bindings: map[string]Actual{"a2": FormalRefActual("a5"), "a1": FormalRefActual("a2")}},
			{TR: "trans3", Bindings: map[string]Actual{"a2": FormalRefActual("a5"), "a1": FormalRefActual("a4"), "a3": FormalRefActual("a3")}},
		},
	}
}

func TestCompoundValidate(t *testing.T) {
	tr := trans4FromPaper()
	if err := tr.Validate(); err != nil {
		t.Fatalf("paper compound rejected: %v", err)
	}
	bad := tr
	bad.Calls = nil
	if err := bad.Validate(); err == nil {
		t.Error("compound with no calls accepted")
	}
	bad = tr
	bad.Exec = "/bin/x"
	if err := bad.Validate(); err == nil {
		t.Error("compound with exec accepted")
	}
	bad = trans4FromPaper()
	bad.Calls[0].Bindings["a1"] = FormalRefActual("ghost")
	if err := bad.Validate(); err == nil {
		t.Error("call binding referencing unknown formal accepted")
	}
	bad = trans4FromPaper()
	bad.Calls[0].TR = ""
	if err := bad.Validate(); err == nil {
		t.Error("call with empty TR ref accepted")
	}
}

func TestInputsOutputs(t *testing.T) {
	tr := trans4FromPaper()
	ins := tr.Inputs()
	wantIns := "a2,a1,a5,a4"
	if strings.Join(ins, ",") != wantIns {
		t.Errorf("Inputs = %v, want %s", ins, wantIns)
	}
	outs := tr.Outputs()
	if strings.Join(outs, ",") != "a5,a4,a3" {
		t.Errorf("Outputs = %v", outs)
	}
}

func TestActualValidateAndExtract(t *testing.T) {
	a := ListActual(StringActual("x"), DatasetActual("input", "f1"), FormalRefActual("a1"))
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if ds := a.Datasets(); len(ds) != 1 || ds[0] != "f1" {
		t.Errorf("Datasets = %v", ds)
	}
	if fr := a.FormalRefs(); len(fr) != 1 || fr[0] != "a1" {
		t.Errorf("FormalRefs = %v", fr)
	}
	if err := ListActual(ListActual()).Validate(); err == nil {
		t.Error("nested list accepted")
	}
	if err := DatasetActual("input", "").Validate(); err == nil {
		t.Error("empty dataset name accepted")
	}
	if err := DatasetActual("input", "has space").Validate(); err == nil {
		t.Error("dataset name with space accepted")
	}
	if err := (Actual{Kind: ActualKind(42)}).Validate(); err == nil {
		t.Error("invalid kind accepted")
	}
}

func TestDerivationSignature(t *testing.T) {
	d1 := Derivation{
		Name: "d1",
		TR:   "example1::t1",
		Params: map[string]Actual{
			"a2":  DatasetActual("output", "run1.exp15.T1932.summary"),
			"a1":  DatasetActual("input", "run1.exp15.T1932.raw"),
			"env": StringActual("20000"),
			"pa":  StringActual("600"),
		},
	}
	// Same params in a different insertion order must hash identically.
	d2 := Derivation{Name: "other-name", TR: d1.TR, Params: map[string]Actual{}}
	for _, k := range []string{"pa", "env", "a1", "a2"} {
		d2.Params[k] = d1.Params[k]
	}
	if d1.Signature() != d2.Signature() {
		t.Error("signature depends on map insertion order or name")
	}
	// Any change to params changes the signature.
	d3 := d1
	d3.Params = map[string]Actual{}
	for k, v := range d1.Params {
		d3.Params[k] = v
	}
	d3.Params["pa"] = StringActual("601")
	if d1.Signature() == d3.Signature() {
		t.Error("changed param did not change signature")
	}
	// Env participates.
	d4 := d1
	d4.Env = map[string]string{"MAXMEM": "1"}
	if d1.Signature() == d4.Signature() {
		t.Error("env did not change signature")
	}
	// TR version participates.
	d5 := d1
	d5.TR = "example1::t1:2"
	if d1.Signature() == d5.Signature() {
		t.Error("TR version did not change signature")
	}
	// Canonicalize fills ID.
	c := d1.Canonicalize()
	if c.ID != d1.Signature() {
		t.Error("Canonicalize did not set ID to signature")
	}
	if !strings.HasPrefix(c.ID, "dv-") {
		t.Errorf("signature format: %s", c.ID)
	}
	c2 := c.Canonicalize()
	if c2.ID != c.ID {
		t.Error("Canonicalize not idempotent")
	}
}

// Property: the signature never collides for single-param derivations
// with distinct string values, and string vs dataset actuals with the
// same value are distinguished.
func TestSignatureInjectivityQuick(t *testing.T) {
	f := func(v1, v2 string) bool {
		d1 := Derivation{TR: "t", Params: map[string]Actual{"a": StringActual(v1)}}
		d2 := Derivation{TR: "t", Params: map[string]Actual{"a": StringActual(v2)}}
		if (v1 == v2) != (d1.Signature() == d2.Signature()) {
			return false
		}
		ds := Derivation{TR: "t", Params: map[string]Actual{"a": {Kind: ADataset, Value: v1}}}
		return ds.Signature() != d1.Signature()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDerivationValidate(t *testing.T) {
	good := Derivation{Name: "d", TR: "t1", Params: map[string]Actual{"a": StringActual("x")}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.TR = ""
	if err := bad.Validate(); err == nil {
		t.Error("empty TR accepted")
	}
	bad = good
	bad.Params = map[string]Actual{"": StringActual("x")}
	if err := bad.Validate(); err == nil {
		t.Error("unnamed formal accepted")
	}
	bad = good
	bad.Params = map[string]Actual{"a": FormalRefActual("p")}
	if err := bad.Validate(); err == nil {
		t.Error("unresolved formal ref accepted in derivation")
	}
}

func TestCheckBinding(t *testing.T) {
	tr := t1FromPaper()
	good := Derivation{
		Name: "d1", TR: "t1",
		Params: map[string]Actual{
			"a2": DatasetActual("output", "out.f"),
			"a1": DatasetActual("input", "in.f"),
			// env and pa defaulted
		},
	}
	if err := good.CheckBinding(tr); err != nil {
		t.Fatalf("good binding rejected: %v", err)
	}

	bad := good
	bad.Params = map[string]Actual{"a2": DatasetActual("", "o"), "a1": DatasetActual("", "i"), "ghost": StringActual("x")}
	if err := bad.CheckBinding(tr); err == nil {
		t.Error("unknown formal accepted")
	}

	bad = good
	bad.Params = map[string]Actual{"a1": DatasetActual("", "i")}
	if err := bad.CheckBinding(tr); err == nil {
		t.Error("missing required formal accepted")
	}

	bad = good
	bad.Params = map[string]Actual{"a2": StringActual("oops"), "a1": DatasetActual("", "i")}
	if err := bad.CheckBinding(tr); err == nil {
		t.Error("string bound to dataset formal accepted")
	}

	bad = good
	bad.Params = map[string]Actual{"a2": DatasetActual("", "o"), "a1": DatasetActual("", "i"), "pa": DatasetActual("", "d")}
	if err := bad.CheckBinding(tr); err == nil {
		t.Error("dataset bound to string formal accepted")
	}

	bad = good
	bad.Params = map[string]Actual{"a2": DatasetActual("input", "o"), "a1": DatasetActual("", "i")}
	if err := bad.CheckBinding(tr); err == nil {
		t.Error("anchor direction conflicting with formal accepted")
	}
}

func TestDerivationInputsOutputs(t *testing.T) {
	tr := t1FromPaper()
	d := Derivation{
		Name: "d1", TR: "t1",
		Params: map[string]Actual{
			"a2": DatasetActual("output", "file2"),
			"a1": DatasetActual("input", "file1"),
		},
	}
	ins := d.Inputs(tr)
	if len(ins) != 1 || ins[0] != "file1" {
		t.Errorf("Inputs = %v", ins)
	}
	outs := d.Outputs(tr)
	if len(outs) != 1 || outs[0] != "file2" {
		t.Errorf("Outputs = %v", outs)
	}
	// Defaults contribute datasets.
	trc := trans4FromPaper()
	dc := Derivation{
		Name: "dc", TR: "trans4",
		Params: map[string]Actual{
			"a2": DatasetActual("input", "i2"),
			"a1": DatasetActual("input", "i1"),
			"a3": DatasetActual("output", "o"),
		},
	}
	outs = dc.Outputs(trc)
	if strings.Join(outs, ",") != "anywhere,somewhere,o" {
		t.Errorf("compound Outputs with defaults = %v", outs)
	}
}

func TestFormalArgAccepts(t *testing.T) {
	r := dtype.StandardRegistry()
	f := FormalArg{Name: "a", Direction: In, Types: []dtype.Type{{Content: "CMS"}}}
	if !f.Accepts(r, dtype.Type{Content: "Zebra-file"}) {
		t.Error("subtype rejected")
	}
	if f.Accepts(r, dtype.Type{Content: "SDSS"}) {
		t.Error("non-conforming accepted")
	}
	any := FormalArg{Name: "a", Direction: In}
	if !any.Accepts(r, dtype.Type{Content: "SDSS"}) {
		t.Error("untyped formal should accept anything")
	}
	str := FormalArg{Name: "s", Direction: None}
	if str.Accepts(r, dtype.Universal) {
		t.Error("string formal accepted a dataset")
	}
}

func TestInvocation(t *testing.T) {
	start := time.Date(2002, 10, 1, 10, 0, 0, 0, time.UTC)
	iv := Invocation{
		ID: "iv-1", Derivation: "dv-x",
		Site: "uchicago", Host: "node17",
		Start: start, End: start.Add(20 * time.Second),
	}
	if err := iv.Validate(); err != nil {
		t.Fatal(err)
	}
	if iv.Duration() != 20*time.Second {
		t.Errorf("Duration = %v", iv.Duration())
	}
	if !iv.Succeeded() {
		t.Error("exit 0 should be success")
	}
	iv.ExitCode = 1
	if iv.Succeeded() {
		t.Error("exit 1 should not be success")
	}
	bad := iv
	bad.End = start.Add(-time.Second)
	if err := bad.Validate(); err == nil {
		t.Error("end before start accepted")
	}
	bad = iv
	bad.Derivation = ""
	if err := bad.Validate(); err == nil {
		t.Error("empty derivation accepted")
	}
	bad = iv
	bad.ID = ""
	if err := bad.Validate(); err == nil {
		t.Error("empty id accepted")
	}
}

func TestReplicaValidate(t *testing.T) {
	good := Replica{ID: "r1", Dataset: "foo", Site: "uchicago", PFN: "/store/foo", Size: 10}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, mut := range []func(*Replica){
		func(r *Replica) { r.ID = "" },
		func(r *Replica) { r.Dataset = "" },
		func(r *Replica) { r.Site = "" },
		func(r *Replica) { r.PFN = "" },
		func(r *Replica) { r.Size = -1 },
	} {
		r := good
		mut(&r)
		if err := r.Validate(); err == nil {
			t.Errorf("invalid replica accepted: %+v", r)
		}
	}
}

func TestDatasetValidate(t *testing.T) {
	good := Dataset{Name: "foo", Descriptor: FileDescriptor{Path: "/f"}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if good.IsVirtual() {
		t.Error("dataset with descriptor reported virtual")
	}
	v := Dataset{Name: "bar"}
	if !v.IsVirtual() {
		t.Error("dataset without descriptor not reported virtual")
	}
	for _, bad := range []Dataset{
		{Name: ""},
		{Name: "has space"},
		{Name: "a", Size: -1},
		{Name: "a", Epoch: -1},
		{Name: "a", Descriptor: FileDescriptor{}},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("invalid dataset accepted: %+v", bad)
		}
	}
}

func TestCompatibilityAssertion(t *testing.T) {
	good := CompatibilityAssertion{Name: "sim", V1: "1.0", V2: "1.1", Mode: Equivalent}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []CompatibilityAssertion{
		{V1: "1", V2: "2", Mode: Equivalent},
		{Name: "x", V2: "2", Mode: Equivalent},
		{Name: "x", V1: "1", Mode: Equivalent},
		{Name: "x", V1: "1", V2: "2", Mode: "maybe"},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("invalid assertion accepted: %+v", bad)
		}
	}
}

func TestAttributesClone(t *testing.T) {
	if Attributes(nil).Clone() != nil {
		t.Error("nil clone should be nil")
	}
	a := Attributes{"k": "v"}
	c := a.Clone()
	c["k"] = "changed"
	if a["k"] != "v" {
		t.Error("clone not independent")
	}
}

// TestSimpleTransformationRefusesInout: inout names a compound's
// intermediate dataset; a simple transformation declaring one could be
// registered but never derived (its derivation would bind the dataset
// as both input and output), so Validate refuses it and says why.
func TestSimpleTransformationRefusesInout(t *testing.T) {
	mid := DatasetActual("inout", "mid")
	simple := Transformation{Name: "t", Kind: Simple, Exec: "/bin/t",
		Args: []FormalArg{{Name: "m", Direction: InOut, Default: &mid}, {Name: "o", Direction: Out}}}
	err := simple.Validate()
	if err == nil || !strings.Contains(err.Error(), "inout") || !strings.Contains(err.Error(), "compound") {
		t.Fatalf("simple transformation with an inout formal: %v", err)
	}
	compound := Transformation{Name: "c", Kind: Compound, Args: simple.Args,
		Calls: []Call{{TR: "s", Bindings: map[string]Actual{"o": FormalRefActual("m")}}}}
	if err := compound.Validate(); err != nil {
		t.Fatalf("compound with an inout intermediate: %v", err)
	}
}
