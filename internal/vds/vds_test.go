package vds

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"chimera/internal/catalog"
	"chimera/internal/dtype"
	"chimera/internal/schema"
	"chimera/internal/trust"
)

func twoArg(name string) schema.Transformation {
	return schema.Transformation{Name: name, Kind: schema.Simple, Exec: "/usr/bin/" + name,
		Args: []schema.FormalArg{
			{Name: "a2", Direction: schema.Out},
			{Name: "a1", Direction: schema.In},
		}}
}

func chainDV(tr, in, out string) schema.Derivation {
	return schema.Derivation{TR: tr, Params: map[string]schema.Actual{
		"a2": schema.DatasetActual("output", out),
		"a1": schema.DatasetActual("input", in),
	}}
}

// startServer spins up a catalog service and returns its client.
func startServer(t *testing.T, name string) (*catalog.Catalog, *Client) {
	t.Helper()
	cat := catalog.New(dtype.StandardRegistry())
	srv := NewServer(name, cat)
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	return cat, NewClient(hs.URL)
}

func TestInfoAndRoundTrips(t *testing.T) {
	cat, client := startServer(t, "test-vdc")

	info, err := client.Info()
	if err != nil || info.Name != "test-vdc" {
		t.Fatalf("info: %+v %v", info, err)
	}

	// Transformation round trip.
	tr := twoArg("t")
	if err := client.PutTransformation(tr); err != nil {
		t.Fatal(err)
	}
	got, err := client.Transformation("t")
	if err != nil || got.Exec != tr.Exec {
		t.Fatalf("tr round trip: %+v %v", got, err)
	}

	// Dataset round trip (with descriptor).
	ds := schema.Dataset{Name: "raw", Type: dtype.Type{Content: "CMS"},
		Descriptor: schema.FileDescriptor{Path: "/raw"}, Size: 42}
	if err := client.PutDataset(ds); err != nil {
		t.Fatal(err)
	}
	gds, err := client.Dataset("raw")
	if err != nil || gds.Size != 42 || gds.Descriptor.(schema.FileDescriptor).Path != "/raw" {
		t.Fatalf("ds round trip: %+v %v", gds, err)
	}

	// Derivation with duplicate detection.
	put, err := client.PutDerivation(chainDV("t", "raw", "cooked"))
	if err != nil || put.Reused {
		t.Fatalf("first put: %+v %v", put, err)
	}
	again, err := client.PutDerivation(chainDV("t", "raw", "cooked"))
	if err != nil || !again.Reused || again.Derivation.ID != put.Derivation.ID {
		t.Fatalf("dup put: %+v %v", again, err)
	}

	// Invocation + replica.
	iv := schema.Invocation{ID: "iv1", Derivation: put.Derivation.ID,
		Start: time.Unix(0, 0).UTC(), End: time.Unix(9, 0).UTC(), Site: "anl"}
	if err := client.PutInvocation(iv); err != nil {
		t.Fatal(err)
	}
	if err := client.PutReplica(schema.Replica{ID: "r1", Dataset: "cooked", Site: "anl", PFN: "/c"}); err != nil {
		t.Fatal(err)
	}
	giv, err := client.Invocation("iv1")
	if err != nil || giv.Site != "anl" {
		t.Fatalf("iv round trip: %+v %v", giv, err)
	}
	reps, err := client.Replicas("cooked")
	if err != nil || len(reps) != 1 {
		t.Fatalf("replicas: %v %v", reps, err)
	}

	// Lineage over the wire.
	lin, err := client.Lineage("cooked")
	if err != nil || len(lin.Steps) != 1 || lin.Steps[0].Invocations[0].ID != "iv1" {
		t.Fatalf("lineage: %+v %v", lin, err)
	}
	anc, err := client.Ancestors("cooked")
	if err != nil || len(anc.Datasets) != 1 || anc.Datasets[0] != "raw" {
		t.Fatalf("ancestors: %+v %v", anc, err)
	}
	if _, err := client.Descendants("raw"); err != nil {
		t.Fatal(err)
	}

	// Export matches local state.
	d, _, err := client.ExportSince(context.Background(), 0, 0)
	if exp := d.Export; err != nil || len(exp.Derivations) != 1 || len(exp.Datasets) != cat.Stats().Datasets {
		t.Fatalf("export: %v", err)
	}
}

func TestSearchOverWire(t *testing.T) {
	_, client := startServer(t, "s")
	if err := client.PutTransformation(twoArg("t")); err != nil {
		t.Fatal(err)
	}
	if _, err := client.PutDerivation(chainDV("t", "a", "b")); err != nil {
		t.Fatal(err)
	}
	dss, err := client.SearchDatasets("derived")
	if err != nil || len(dss) != 1 || dss[0].Name != "b" {
		t.Fatalf("dataset search: %v %v", dss, err)
	}
	trs, err := client.SearchTransformations("simple")
	if err != nil || len(trs) != 1 {
		t.Fatalf("tr search: %v %v", trs, err)
	}
	dvs, err := client.SearchDerivations("produces(b)")
	if err != nil || len(dvs) != 1 {
		t.Fatalf("dv search: %v %v", dvs, err)
	}
	// Empty result is [] not null.
	none, err := client.SearchDatasets(`name = nothing`)
	if err != nil || none == nil || len(none) != 0 {
		t.Fatalf("empty search: %v %v", none, err)
	}
	// Bad query is a 400.
	if _, err := client.SearchDatasets("bogus ="); err == nil {
		t.Error("bad query accepted")
	}
}

// TestMalformedGlobIs400: a bad `~` pattern is rejected when the query is
// parsed, so the status cannot depend on whether the catalog is empty,
// the candidate set is empty, or some object reached the pattern.
func TestMalformedGlobIs400(t *testing.T) {
	_, client := startServer(t, "s")
	check := func(state string) {
		t.Helper()
		for _, q := range []string{
			`name ~ "[a"`,
			`attr.owner ~ "[a"`,
			`name = nothing and name ~ "[a"`, // empty candidate set
			`derived and name ~ "a[]"`,
		} {
			_, err := client.SearchDatasets(q)
			var re *RemoteError
			if !errors.As(err, &re) || re.Status != http.StatusBadRequest {
				t.Errorf("%s catalog, %q: got %v, want a 400", state, q, err)
			}
		}
	}
	check("empty")
	if err := client.PutTransformation(twoArg("t")); err != nil {
		t.Fatal(err)
	}
	if _, err := client.PutDerivation(chainDV("t", "a", "b")); err != nil {
		t.Fatal(err)
	}
	check("populated")
}

func TestErrorMapping(t *testing.T) {
	_, client := startServer(t, "s")
	_, err := client.Dataset("ghost")
	if !NotFound(err) {
		t.Errorf("missing dataset: %v", err)
	}
	var re *RemoteError
	if !errors.As(err, &re) || re.Status != 404 {
		t.Errorf("remote error shape: %v", err)
	}
	// Conflict maps to 409.
	if err := client.PutTransformation(twoArg("t")); err != nil {
		t.Fatal(err)
	}
	other := twoArg("t")
	other.Exec = "/different"
	err = client.PutTransformation(other)
	if err == nil {
		t.Fatal("conflict accepted")
	}
	if !errors.As(err, &re) || re.Status != 409 {
		t.Errorf("conflict status: %v", err)
	}
}

func TestReadOnlyServer(t *testing.T) {
	cat := catalog.New(nil)
	srv := NewServer("ro", cat)
	srv.ReadOnly = true
	hs := httptest.NewServer(srv)
	defer hs.Close()
	client := NewClient(hs.URL)
	if err := client.PutTransformation(twoArg("t")); err == nil {
		t.Error("mutation on read-only server accepted")
	}
	if _, err := client.Info(); err != nil {
		t.Errorf("read on read-only server: %v", err)
	}
}

func TestPostVDL(t *testing.T) {
	cat, client := startServer(t, "s")
	src := `
TR trans1( output a2, input a1 ) {
  argument stdin = ${input:a1};
  argument stdout = ${output:a2};
  exec = "/usr/bin/app1";
}
DV usetrans1->trans1( a2=@{output:"file2"}, a1=@{input:"file1"} );
`
	if err := client.PostVDL(src); err != nil {
		t.Fatal(err)
	}
	if cat.Stats().Derivations != 1 || cat.Stats().Transformations != 1 {
		t.Errorf("stats after vdl: %+v", cat.Stats())
	}
	if err := client.PostVDL("TR broken ("); err == nil {
		t.Error("bad vdl accepted")
	}
}

func TestSignaturesAndAnnotationsOverWire(t *testing.T) {
	_, client := startServer(t, "s")
	signer, err := trust.NewAuthority("curator")
	if err != nil {
		t.Fatal(err)
	}
	sig := signer.SignEntry(trust.KindDataset, "raw", []byte("payload"))
	if err := client.PutSignature(trust.KindDataset, "raw", sig); err != nil {
		t.Fatal(err)
	}
	sigs, err := client.Signatures(trust.KindDataset, "raw")
	if err != nil || len(sigs) != 1 || sigs[0].Key != signer.ID() {
		t.Fatalf("signatures: %v %v", sigs, err)
	}
	// Signature survives the wire: it still verifies.
	store := trust.NewStore()
	store.AddRoot(signer.Authority)
	if err := store.Verify(trust.KindDataset, "raw", []byte("payload"), sigs[0]); err != nil {
		t.Errorf("wire-transported signature invalid: %v", err)
	}

	ann := signer.Annotate(trust.KindDataset, "raw", "quality", "approved")
	if err := client.PutAnnotation(ann); err != nil {
		t.Fatal(err)
	}
	anns, err := client.Annotations(trust.KindDataset, "raw")
	if err != nil || len(anns) != 1 {
		t.Fatalf("annotations: %v %v", anns, err)
	}
	if err := store.VerifyAnnotation(anns[0]); err != nil {
		t.Errorf("wire-transported annotation invalid: %v", err)
	}
}

func TestVDPNames(t *testing.T) {
	n, err := ParseName("vdp://physics.wisconsin.edu/srch")
	if err != nil || n.Authority != "physics.wisconsin.edu" || n.Object != "srch" {
		t.Fatalf("parse: %+v %v", n, err)
	}
	if n.String() != "vdp://physics.wisconsin.edu/srch" {
		t.Errorf("string: %s", n)
	}
	// Nested object paths.
	n, err = ParseName("vdp://host/group/obj")
	if err != nil || n.Object != "group/obj" {
		t.Errorf("nested: %+v %v", n, err)
	}
	for _, bad := range []string{"http://x/y", "vdp://", "vdp://host", "vdp://host/"} {
		if _, err := ParseName(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
	if !IsVDP("vdp://a/b") || IsVDP("x") {
		t.Error("IsVDP")
	}
}

// TestFigure2Scenario reproduces the paper's Figure 2: Illinois defines
// transformations sim and cmp; Wisconsin defines compound cmpsim over
// them and a srch transformation; Illinois then defines a derivation
// srch-muon against Wisconsin's srch via a vdp hyperlink.
func TestFigure2Scenario(t *testing.T) {
	illinois, illinoisClient := startServer(t, "physics.illinois.edu")
	wisconsin, wisconsinClient := startServer(t, "physics.wisconsin.edu")
	_ = illinoisClient

	reg := NewRegistry()
	reg.Register("physics.illinois.edu", illinoisClient.Base)
	reg.Register("physics.wisconsin.edu", wisconsinClient.Base)

	// Illinois transformations.
	if err := illinois.AddTransformation(twoArg("sim")); err != nil {
		t.Fatal(err)
	}
	if err := illinois.AddTransformation(twoArg("cmp")); err != nil {
		t.Fatal(err)
	}

	// Wisconsin defines cmpsim = sim then cmp, calling Illinois TRs by
	// vdp hyperlink, plus a local srch.
	cmpsim := schema.Transformation{
		Name: "cmpsim", Kind: schema.Compound,
		Args: []schema.FormalArg{
			{Name: "in", Direction: schema.In},
			{Name: "mid", Direction: schema.InOut, Default: defaultDS("tmp")},
			{Name: "out", Direction: schema.Out},
		},
		Calls: []schema.Call{
			{TR: "vdp://physics.illinois.edu/sim", Bindings: map[string]schema.Actual{
				"a2": refDir("output", "mid"), "a1": schema.FormalRefActual("in")}},
			{TR: "vdp://physics.illinois.edu/cmp", Bindings: map[string]schema.Actual{
				"a2": refDir("output", "out"), "a1": refDir("input", "mid")}},
		},
	}
	if err := wisconsin.AddTransformation(cmpsim); err != nil {
		t.Fatal(err)
	}
	if err := wisconsin.AddTransformation(twoArg("srch")); err != nil {
		t.Fatal(err)
	}

	// A third site imports Wisconsin's compound; the Illinois callees
	// come along transitively.
	personal := catalog.New(nil)
	tr, err := ImportTransformation(personal, reg, "vdp://physics.wisconsin.edu/cmpsim")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Attrs["importedFrom"] != "vdp://physics.wisconsin.edu/cmpsim" {
		t.Errorf("origin attr: %v", tr.Attrs)
	}
	if _, err := personal.Transformation("sim"); err != nil {
		t.Errorf("transitive callee sim not imported: %v", err)
	}
	if _, err := personal.Transformation("cmp"); err != nil {
		t.Errorf("transitive callee cmp not imported: %v", err)
	}

	// The imported compound expands and registers locally.
	dv := schema.Derivation{TR: "cmpsim", Params: map[string]schema.Actual{
		"in":  schema.DatasetActual("input", "events.raw"),
		"out": schema.DatasetActual("output", "events.cmp"),
	}}
	leaves, err := schema.ExpandDerivation(dv, Resolver(personal, reg))
	if err != nil {
		t.Fatal(err)
	}
	if len(leaves) != 2 {
		t.Fatalf("expansion: %d leaves", len(leaves))
	}

	// Illinois defines srch-muon against Wisconsin's srch; a personal
	// catalog imports the derivation and gets the TR too.
	srchMuon := schema.Derivation{Name: "srch-muon",
		TR: "vdp://physics.wisconsin.edu/srch",
		Params: map[string]schema.Actual{
			"a2": schema.DatasetActual("output", "muons"),
			"a1": schema.DatasetActual("input", "events.cmp"),
		}}
	// Register remotely: first import the TR into Illinois, then add.
	if _, err := ImportTransformation(illinois, reg, "vdp://physics.wisconsin.edu/srch"); err != nil {
		t.Fatal(err)
	}
	srchMuon.TR = "srch"
	stored, err := illinois.AddDerivation(srchMuon)
	if err != nil {
		t.Fatal(err)
	}
	personal2 := catalog.New(nil)
	got, err := ImportDerivation(personal2, reg, "vdp://physics.illinois.edu/"+stored.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != stored.ID {
		t.Errorf("imported derivation id: %s vs %s", got.ID, stored.ID)
	}
	if _, err := personal2.Transformation("srch"); err != nil {
		t.Errorf("derivation import did not pull its transformation: %v", err)
	}
}

func defaultDS(name string) *schema.Actual {
	a := schema.DatasetActual("inout", name)
	return &a
}

func refDir(dir, name string) schema.Actual {
	a := schema.FormalRefActual(name)
	a.Direction = dir
	return a
}

func TestImportErrors(t *testing.T) {
	local := catalog.New(nil)
	reg := NewRegistry()
	if _, err := ImportTransformation(local, reg, "vdp://nowhere/x"); err == nil {
		t.Error("unknown authority accepted")
	}
	if _, err := ImportDerivation(local, reg, "not-a-vdp"); err == nil {
		t.Error("non-vdp derivation ref accepted")
	}
	_, client := startServer(t, "s")
	reg.Register("s", client.Base)
	if _, err := ImportTransformation(local, reg, "vdp://s/ghost"); err == nil {
		t.Error("missing remote TR accepted")
	}
}

func TestApplyProgramTypes(t *testing.T) {
	cat, client := startServer(t, "s")
	src := `
TYPE content HEP;
TYPE content Events extends HEP;
DS raw<Events>;
`
	if err := client.PostVDL(src); err != nil {
		t.Fatal(err)
	}
	if !cat.Types().IsSubtype(dtype.Content, "Events", "HEP") {
		t.Error("types not applied")
	}
}

func TestTypesEndpointAndImportTypes(t *testing.T) {
	remoteCat, client := startServer(t, "remote")
	if err := remoteCat.DefineType(dtype.Content, "HEP2", ""); err != nil {
		t.Fatal(err)
	}
	if err := remoteCat.DefineType(dtype.Content, "Events2", "HEP2"); err != nil {
		t.Fatal(err)
	}
	reg, err := client.Types()
	if err != nil {
		t.Fatal(err)
	}
	if !reg.IsSubtype(dtype.Content, "Events2", "HEP2") {
		t.Error("types endpoint lost hierarchy")
	}

	// A typed transformation imports along with its type vocabulary.
	tr := schema.Transformation{Name: "typedtr", Kind: schema.Simple, Exec: "/x",
		Args: []schema.FormalArg{
			{Name: "o", Direction: schema.Out},
			{Name: "i", Direction: schema.In, Types: []dtype.Type{{Content: "Events2"}}},
		}}
	if err := remoteCat.AddTransformation(tr); err != nil {
		t.Fatal(err)
	}
	authReg := NewRegistry()
	authReg.Register("remote", client.Base)
	local := catalog.New(nil) // empty registry: types must come along
	if _, err := ImportTransformation(local, authReg, "vdp://remote/typedtr"); err != nil {
		t.Fatal(err)
	}
	if !local.Types().IsSubtype(dtype.Content, "Events2", "HEP2") {
		t.Error("import did not carry type vocabulary")
	}
	// And the imported TR is usable for typed derivations.
	if err := local.AddDataset(schema.Dataset{Name: "d", Type: dtype.Type{Content: "Events2"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := local.AddDerivation(schema.Derivation{TR: "typedtr", Params: map[string]schema.Actual{
		"o": schema.DatasetActual("output", "out"),
		"i": schema.DatasetActual("input", "d"),
	}}); err != nil {
		t.Errorf("typed derivation after import: %v", err)
	}
}

func TestRegistryAuthorities(t *testing.T) {
	reg := NewRegistry()
	reg.Register("a", "http://a")
	reg.Register("b", "http://b")
	if got := len(reg.Authorities()); got != 2 {
		t.Errorf("authorities: %d", got)
	}
}

func TestClientErrorTransports(t *testing.T) {
	// Connection refused surfaces as a transport error, not RemoteError.
	dead := NewClient("http://127.0.0.1:1")
	if _, err := dead.Info(); err == nil || NotFound(err) {
		t.Errorf("dead server: %v", err)
	}
	// Custom HTTP client honored.
	_, client := startServer(t, "x")
	client.HTTP = client.http()
	if _, err := client.Info(); err != nil {
		t.Error(err)
	}
}

func TestServerRejectsOversizedAndGarbage(t *testing.T) {
	_, client := startServer(t, "s")
	// Garbage JSON bodies are 400s.
	req, _ := httpNewRequest("PUT", client.Base+"/v1/datasets", "{not json")
	resp, err := client.http().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("garbage body status: %d", resp.StatusCode)
	}
}

func httpNewRequest(method, url, body string) (*http.Request, error) {
	return http.NewRequest(method, url, strings.NewReader(body))
}
