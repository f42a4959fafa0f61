package vdl

import (
	"reflect"
	"strings"
	"testing"

	"chimera/internal/dtype"
	"chimera/internal/schema"
)

// paperT1 is the basic transformation of Appendix A, verbatim.
const paperT1 = `
TR t1( output a2, input a1, none env="100000", none pa="500" ) {
  argument parg = "-p "${none:pa};
  argument farg = "-f "${input:a1};
  argument xarg = "-x -y ";
  argument stdout = ${output:a2};
  exec = "/usr/bin/app3";
  env.MAXMEM = ${none:env};
}
`

// paperD1 is the derivation of Appendix A, verbatim.
const paperD1 = `
DV d1->example1::t1(
  a2=@{output:"run1.exp15.T1932.summary"},
  a1=@{input:"run1.exp15.T1932.raw"},
  env="20000",
  pa="600"
);
`

// paperChain is the two-transformation provenance chain of Appendix A.
const paperChain = `
TR trans1( output a2, input a1 ) {
  argument stdin = ${input:a1};
  argument stdout = ${output:a2};
  exec = "/usr/bin/app1";
}
TR trans2( output a2, input a1 ) {
  argument stdin = ${input:a1};
  argument stdout = ${output:a2};
  exec = "/usr/bin/app2";
}
DV usetrans1->trans1( a2=@{output:"file2"}, a1=@{input:"file1"} );
DV usetrans2->trans2( a2=@{output:"file3"}, a1=@{input:"file2"} );
`

// paperCompound is the compound transformation trans4 plus its callees
// and the nested compound trans5, from Appendix A.
const paperCompound = `
TR trans1( output a2, input a1 ) {
  argument = "...";
  argument stdin = ${input:a1};
  argument stdout = ${output:a2};
  profile hints.pfnHint = "/usr/bin/app1";
}
TR trans2( output a2, input a1 ) {
  argument = "...";
  argument stdin = ${input:a1};
  argument stdout = ${output:a2};
  exec = "/usr/bin/app2";
}
TR trans3( input a2, input a1, output a3 ) {
  argument parg = "-p foo";
  argument farg = "-f "${input:a1};
  argument xarg = "-x -y -o "${output:a3};
  argument stdin = ${input:a2};
  exec = "/usr/bin/app3";
}
TR trans4( input a2, input a1,
    inout a5=@{inout:"anywhere":""},
    inout a4=@{inout:"somewhere":""},
    output a3 ) {
  trans1( a2=${output:a4}, a1=${a1} );
  trans2( a2=${output:a5}, a1=${a2} );
  trans3( a2=${input:a5}, a1=${input:a4}, a3=${output:a3} );
}
TR trans5( input a2, input a1,
    inout a4=@{inout:"someplace":""},
    output a3 ) {
  trans1( a2=${output:a4}, a1=${a1} );
  trans4( a2=${input:a4}, a1=${a2}, a3=${a3} );
}
`

func TestLexerBasics(t *testing.T) {
	toks, err := lexAll(`TR d1->t:2 ( "a\"b" @{ ${ } ) [ ] < > | , ; = :: :`)
	if err != nil {
		t.Fatal(err)
	}
	kinds := make([]TokenKind, len(toks))
	for i, tk := range toks {
		kinds[i] = tk.Kind
	}
	want := []TokenKind{tIdent, tIdent, tArrow, tIdent, tColon, tIdent, tLParen,
		tString, tAtBrace, tDolBrace, tRBrace, tRParen, tLBracket, tRBracket,
		tLAngle, tRAngle, tPipe, tComma, tSemi, tEq, tDColon, tColon, tEOF}
	if !reflect.DeepEqual(kinds, want) {
		t.Errorf("kinds = %v\nwant    %v", kinds, want)
	}
	if toks[7].Text != `a"b` {
		t.Errorf("string escape: %q", toks[7].Text)
	}
}

func TestLexerHyphenIdents(t *testing.T) {
	toks, err := lexAll(`Zebra-file d1->t`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Text != "Zebra-file" {
		t.Errorf("hyphenated ident lexed as %q", toks[0].Text)
	}
	if toks[1].Text != "d1" || toks[2].Kind != tArrow || toks[3].Text != "t" {
		t.Errorf("arrow split wrong: %v", toks)
	}
}

func TestLexerComments(t *testing.T) {
	toks, err := lexAll("a # line\n b // line2\n /* block \n more */ c")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tk := range toks[:len(toks)-1] {
		texts = append(texts, tk.Text)
	}
	if !reflect.DeepEqual(texts, []string{"a", "b", "c"}) {
		t.Errorf("comment handling: %v", texts)
	}
	if _, err := lexAll("/* unterminated"); err == nil {
		t.Error("unterminated block comment accepted")
	}
	if _, err := lexAll(`"unterminated`); err == nil {
		t.Error("unterminated string accepted")
	}
	if _, err := lexAll(`"\q"`); err == nil {
		t.Error("bad escape accepted")
	}
	if _, err := lexAll("%"); err == nil {
		t.Error("stray character accepted")
	}
	if _, err := lexAll("@x"); err == nil {
		t.Error("stray @ accepted")
	}
	if _, err := lexAll("$x"); err == nil {
		t.Error("stray $ accepted")
	}
	if _, err := lexAll("- x"); err == nil {
		t.Error("stray - accepted")
	}
}

func TestParsePaperT1(t *testing.T) {
	prog, err := Parse(paperT1)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Transformations) != 1 {
		t.Fatalf("got %d transformations", len(prog.Transformations))
	}
	tr := prog.Transformations[0]
	if tr.Name != "t1" || tr.Kind != schema.Simple || tr.Exec != "/usr/bin/app3" {
		t.Errorf("header: %+v", tr)
	}
	if len(tr.Args) != 4 {
		t.Fatalf("args: %v", tr.Args)
	}
	if tr.Args[0].Name != "a2" || tr.Args[0].Direction != schema.Out {
		t.Errorf("arg0: %+v", tr.Args[0])
	}
	if tr.Args[2].Default == nil || tr.Args[2].Default.Value != "100000" {
		t.Errorf("env default: %+v", tr.Args[2].Default)
	}
	if len(tr.ArgTemplates) != 4 {
		t.Fatalf("templates: %v", tr.ArgTemplates)
	}
	parg := tr.ArgTemplates[0]
	if parg.Name != "parg" || parg.Parts[0].Literal != "-p " || parg.Parts[1].Ref != "pa" {
		t.Errorf("parg: %+v", parg)
	}
	stdout := tr.ArgTemplates[3]
	if stdout.Name != "stdout" || !stdout.IsStdio() || stdout.Parts[0].Ref != "a2" {
		t.Errorf("stdout: %+v", stdout)
	}
	if env := tr.Env["MAXMEM"]; len(env) != 1 || env[0].Ref != "env" {
		t.Errorf("env.MAXMEM: %+v", tr.Env)
	}
}

func TestParsePaperD1(t *testing.T) {
	prog, err := Parse(paperT1 + paperD1)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Derivations) != 1 {
		t.Fatalf("got %d derivations", len(prog.Derivations))
	}
	dv := prog.Derivations[0]
	if dv.Name != "d1" || dv.TR != "example1::t1" {
		t.Errorf("header: %+v", dv)
	}
	if dv.ID == "" || !strings.HasPrefix(dv.ID, "dv-") {
		t.Errorf("not canonicalized: %q", dv.ID)
	}
	a2 := dv.Params["a2"]
	if a2.Kind != schema.ADataset || a2.Value != "run1.exp15.T1932.summary" || a2.Direction != "output" {
		t.Errorf("a2: %+v", a2)
	}
	if dv.Params["pa"].Value != "600" {
		t.Errorf("pa: %+v", dv.Params["pa"])
	}
}

func TestParsePaperChain(t *testing.T) {
	prog, err := Parse(paperChain)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Transformations) != 2 || len(prog.Derivations) != 2 {
		t.Fatalf("counts: %d TR, %d DV", len(prog.Transformations), len(prog.Derivations))
	}
	d1, d2 := prog.Derivations[0], prog.Derivations[1]
	tr := prog.Transformations[0]
	if got := d1.Outputs(tr); len(got) != 1 || got[0] != "file2" {
		t.Errorf("usetrans1 outputs: %v", got)
	}
	if got := d2.Inputs(prog.Transformations[1]); len(got) != 1 || got[0] != "file2" {
		t.Errorf("usetrans2 inputs: %v", got)
	}
}

func TestParsePaperCompound(t *testing.T) {
	prog, err := Parse(paperCompound)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Transformations) != 5 {
		t.Fatalf("got %d transformations", len(prog.Transformations))
	}
	trans1 := prog.Transformations[0]
	if trans1.Exec != "" || trans1.Profile["hints.pfnHint"] != "/usr/bin/app1" {
		t.Errorf("trans1 executable via profile: %+v", trans1)
	}
	if trans1.ArgTemplates[0].Name != "" {
		t.Errorf("anonymous argument template got name %q", trans1.ArgTemplates[0].Name)
	}
	trans4 := prog.Transformations[3]
	if trans4.Kind != schema.Compound || len(trans4.Calls) != 3 {
		t.Fatalf("trans4: %+v", trans4)
	}
	if trans4.Args[2].Default == nil || trans4.Args[2].Default.Value != "anywhere" {
		t.Errorf("trans4 a5 default: %+v", trans4.Args[2].Default)
	}
	call0 := trans4.Calls[0]
	if call0.TR != "trans1" || call0.Bindings["a2"].Kind != schema.AFormalRef || call0.Bindings["a2"].Value != "a4" {
		t.Errorf("trans4 call0: %+v", call0)
	}
	trans5 := prog.Transformations[4]
	if trans5.Calls[1].TR != "trans4" {
		t.Errorf("trans5 nested compound call: %+v", trans5.Calls)
	}
}

func TestParseTypeAndDataset(t *testing.T) {
	src := `
TYPE content CMS;
TYPE content Simulation extends CMS;
TYPE format Fileset;
TYPE encoding ASCII;
DS raw1<Simulation:Fileset:ASCII> file "/data/raw1" size "1024" with owner="mike", curated="yes";
DS virt1<Simulation> virtual of raw1 expr "events 1-100";
DS untyped;
DS fs fileset ["/a", "/b"];
DS op opaque cms-custom "{\"x\":1}";
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Types) != 4 {
		t.Fatalf("types: %v", prog.Types)
	}
	if prog.Types[1].Parent != "CMS" || prog.Types[1].Dim != dtype.Content {
		t.Errorf("extends: %+v", prog.Types[1])
	}
	if len(prog.Datasets) != 5 {
		t.Fatalf("datasets: %d", len(prog.Datasets))
	}
	raw := prog.Datasets[0]
	if raw.Type != (dtype.Type{Content: "Simulation", Format: "Fileset", Encoding: "ASCII"}) {
		t.Errorf("raw type: %v", raw.Type)
	}
	if raw.Size != 1024 || raw.Attrs["owner"] != "mike" {
		t.Errorf("raw: %+v", raw)
	}
	if d, ok := raw.Descriptor.(schema.FileDescriptor); !ok || d.Path != "/data/raw1" {
		t.Errorf("raw descriptor: %+v", raw.Descriptor)
	}
	if v, ok := prog.Datasets[1].Descriptor.(schema.VirtualDescriptor); !ok || v.Of != "raw1" {
		t.Errorf("virtual: %+v", prog.Datasets[1].Descriptor)
	}
	if prog.Datasets[2].Descriptor != nil {
		t.Error("untyped DS should have nil descriptor")
	}
	if fs, ok := prog.Datasets[3].Descriptor.(schema.FileSetDescriptor); !ok || len(fs.Paths) != 2 {
		t.Errorf("fileset: %+v", prog.Datasets[3].Descriptor)
	}
	if op, ok := prog.Datasets[4].Descriptor.(schema.OpaqueDescriptor); !ok || op.Schema != "cms-custom" {
		t.Errorf("opaque: %+v", prog.Datasets[4].Descriptor)
	}
}

func TestParseTypedFormals(t *testing.T) {
	src := `
TR analyze( input a<Simulation:Fileset | FITS-file>, output b<_:Fileset> ) {
  exec = "/bin/analyze";
}
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	tr := prog.Transformations[0]
	if len(tr.Args[0].Types) != 2 {
		t.Fatalf("union: %+v", tr.Args[0].Types)
	}
	if tr.Args[0].Types[0] != (dtype.Type{Content: "Simulation", Format: "Fileset"}) {
		t.Errorf("first member: %v", tr.Args[0].Types[0])
	}
	if tr.Args[1].Types[0] != (dtype.Type{Format: "Fileset"}) {
		t.Errorf("underscore content: %v", tr.Args[1].Types[0])
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"BOGUS x;",
		"TR t( {",
		"TR t( sideways a ) { exec = \"/x\"; }",
		"TR t( input a ) { }",                         // no exec
		"TR t( input a ) { exec = \"/x\" }",           // missing semi
		"TR t( input a, input a ) { exec = \"/x\"; }", // dup formal
		"TR t( input a ) { argument = ${ghost}; exec = \"/x\"; }",
		"TR t( input a ) { env. = \"x\"; exec = \"/x\"; }", // empty env name
		`DV d->t( a=@{output:"x"}, a=@{input:"y"} );`,      // dup binding
		`DV d->t( a=${ref} );`,                             // refs not allowed in DV
		`DV ns::d->t( a="x" );`,                            // namespaced DV name
		`DV d->t( a=[["x"]] );`,                            // nested list
		`DV d->t( a=@{sideways:"x"} );`,                    // bad anchor dir
		"TYPE sideways X;",
		"TYPE content X extends Ghost", // missing semi
		`DS d size "abc";`,
		"42",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("accepted invalid source: %s", src)
		}
	}
}

func TestEnvLifting(t *testing.T) {
	prog, err := Parse(paperT1 + `DV d->t1( a2=@{output:"o"}, a1=@{input:"i"}, env.MAXMEM="42" );`)
	if err != nil {
		t.Fatal(err)
	}
	dv := prog.Derivations[0]
	if dv.Env["MAXMEM"] != "42" {
		t.Errorf("env not lifted: %+v", dv)
	}
	if _, ok := dv.Params["env.MAXMEM"]; ok {
		t.Error("env binding left in params")
	}
}

// roundTrip parses src, prints, reparses, and requires equality of the
// resulting programs.
func roundTrip(t *testing.T, src string) Program {
	t.Helper()
	p1, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	text := Print(p1)
	p2, err := Parse(text)
	if err != nil {
		t.Fatalf("reparse printed text: %v\n%s", err, text)
	}
	if !programsEqual(p1, p2) {
		t.Fatalf("round trip mismatch\n--- printed ---\n%s\n--- p1 ---\n%+v\n--- p2 ---\n%+v", text, p1, p2)
	}
	return p1
}

// programsEqual compares programs modulo derivation signature (printing
// re-canonicalizes) and the Direction annotation on refs whose printed
// form preserves it anyway.
func programsEqual(a, b Program) bool {
	return reflect.DeepEqual(a, b)
}

func TestRoundTripPaperSources(t *testing.T) {
	for _, src := range []string{paperT1, paperT1 + paperD1, paperChain, paperCompound} {
		roundTrip(t, src)
	}
}

func TestRoundTripFullFeatures(t *testing.T) {
	src := `
TYPE content CMS;
TYPE content Simulation extends CMS;
DS raw<Simulation> file "/d/raw" size "77" with a="1";
TR ns::t:1.2( input a<Simulation>, none p="x", output b ) {
  argument = "-v ";
  argument files = "-f "${input:a}" extra";
  argument stdout = ${output:b};
  exec = "/bin/t";
  profile hints.queue = "fast";
  env.PATH = "/bin:"${none:p};
  attr author = "wilde";
}
DV run1->ns::t:1.2( a=@{input:"raw"}, b=@{output:"cooked"}, p="y", env.HOME="/tmp" ) with note="first";
DV ns::t:1.2( a=@{input:"raw"}, b=@{output:"cooked2"}, p=["y", "z"] );
`
	p := roundTrip(t, src)
	if p.Derivations[1].Name != "" {
		t.Error("anonymous derivation acquired a name")
	}
}

func TestXMLRoundTrip(t *testing.T) {
	for _, src := range []string{paperT1 + paperD1, paperCompound, `
TYPE content CMS;
DS raw<CMS> file "/d/raw" size "9" with k="v";
`} {
		p1, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		data, err := MarshalXML(p1)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := UnmarshalXML(data)
		if err != nil {
			t.Fatalf("unmarshal: %v\n%s", err, data)
		}
		if !programsEqual(p1, p2) {
			t.Errorf("xml round trip mismatch for:\n%s\nxml:\n%s", src, data)
		}
	}
}

func TestXMLRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalXML([]byte("<vdl><type dim='sideways' name='x'/></vdl>")); err == nil {
		t.Error("bad dimension accepted")
	}
	if _, err := UnmarshalXML([]byte("not xml")); err == nil {
		t.Error("non-xml accepted")
	}
}

func TestProgramMerge(t *testing.T) {
	p1, _ := Parse(paperT1)
	p2, _ := Parse(paperT1 + paperD1)
	var all Program
	all.Merge(p1)
	all.Merge(p2)
	if len(all.Transformations) != 2 || len(all.Derivations) != 1 {
		t.Errorf("merge: %d TR, %d DV", len(all.Transformations), len(all.Derivations))
	}
}

// Property-style: generate programs from fragments, ensure print/parse
// stability (fixpoint after one round).
func TestPrintFixpoint(t *testing.T) {
	p1, err := Parse(paperCompound + paperD1 + paperT1)
	if err != nil {
		t.Fatal(err)
	}
	text1 := Print(p1)
	p2, err := Parse(text1)
	if err != nil {
		t.Fatal(err)
	}
	text2 := Print(p2)
	if text1 != text2 {
		t.Errorf("printer not a fixpoint:\n%s\n---\n%s", text1, text2)
	}
}

func TestPrintDatasetVariants(t *testing.T) {
	// All DS descriptor spellings print and re-parse.
	src := `
TYPE format Fileset;
DS plain;
DS f file "/a/b" size "7";
DS fs<_:Fileset> fileset ["/x", "/y"] with note="two files";
DS v virtual of f expr "rows 1-5";
DS op opaque community-schema "payload";
`
	p := roundTrip(t, src)
	if len(p.Datasets) != 5 {
		t.Fatalf("datasets: %d", len(p.Datasets))
	}
}

func TestSyntaxErrorPositions(t *testing.T) {
	_, err := Parse("TR t( output o, input i ) {\n  exec = 42;\n}")
	if err == nil {
		t.Fatal("bad exec accepted")
	}
	var se *SyntaxError
	if !errorsAs(err, &se) {
		t.Fatalf("not a SyntaxError: %v", err)
	}
	if se.Pos.Line != 2 {
		t.Errorf("error line: %d (%v)", se.Pos.Line, err)
	}
	if se.Error() == "" {
		t.Error("empty error text")
	}
}

func errorsAs(err error, target **SyntaxError) bool {
	se, ok := err.(*SyntaxError)
	if ok {
		*target = se
	}
	return ok
}

func TestXMLAllDimensionsAndActuals(t *testing.T) {
	src := `
TYPE content C;
TYPE format F;
TYPE encoding E;
TR t( output o, input i, none p="x" ) {
  exec = "/b";
}
DV d->t( o=@{output:"out"}, i=[@{input:"a"}, @{input:"b"}], p="v" );
`
	p1, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	data, err := MarshalXML(p1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := UnmarshalXML(data)
	if err != nil {
		t.Fatal(err)
	}
	if !programsEqual(p1, p2) {
		t.Errorf("xml round trip:\n%s", data)
	}
	// Bad actual kind rejected.
	if _, err := UnmarshalXML([]byte(`<vdl><derivation tr="t"><param name="a"><value kind="alien"/></param></derivation></vdl>`)); err == nil {
		t.Error("alien actual kind accepted")
	}
	// Unknown direction rejected.
	if _, err := UnmarshalXML([]byte(`<vdl><transformation name="t" kind="simple"><arg name="a" direction="sideways"/><exec>/b</exec></transformation></vdl>`)); err == nil {
		t.Error("alien direction accepted")
	}
}

func TestAnchorHintForms(t *testing.T) {
	// Third anchor component (temp-name hint) parses and is discarded.
	prog, err := Parse(`
TR t( inout m=@{inout:"base":"hint"}, output o, input i ) { s( o=${output:m}, i=${i} ); }
`)
	if err != nil {
		t.Fatal(err)
	}
	def := prog.Transformations[0].Args[0].Default
	if def == nil || def.Value != "base" {
		t.Errorf("anchor default: %+v", def)
	}
	// Malformed anchors rejected.
	for _, bad := range []string{
		`DV d->t( a=@{output} );`,
		`DV d->t( a=@{output:} );`,
		`DV d->t( a=@{output:"x":} );`,
		`DV d->t( a=@{output:"x" );`,
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}
