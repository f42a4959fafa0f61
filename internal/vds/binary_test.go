package vds

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"testing"
	"time"

	"chimera/internal/catalog"
	"chimera/internal/codec"
	"chimera/internal/dtype"
	"chimera/internal/schema"
)

func seedExportState(t *testing.T, cat *catalog.Catalog) {
	t.Helper()
	if err := cat.AddTransformation(twoArg("t")); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b", "c"} {
		if err := cat.AddDataset(schema.Dataset{Name: name, Attrs: schema.Attributes{"k": name}}); err != nil {
			t.Fatal(err)
		}
		if err := cat.AddReplica(schema.Replica{ID: "r-" + name, Dataset: name, Site: "anl", PFN: "/" + name}); err != nil {
			t.Fatal(err)
		}
	}
	dv, err := cat.AddDerivation(chainDV("t", "a", "a.out"))
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.AddInvocation(schema.Invocation{
		ID: "iv", Derivation: dv.ID, Site: "anl", Host: "n1",
		Start: time.Unix(50, 0).UTC(), End: time.Unix(60, 0).UTC(),
	}); err != nil {
		t.Fatal(err)
	}
}

// stripAccept simulates a pre-negotiation server: it never sees (and
// so never honors) the Accept header.
func stripAccept(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Header.Del("Accept")
		h.ServeHTTP(w, r)
	})
}

// TestBinaryExportNegotiation: a client of a binary-capable server
// gets the binary body; against a legacy server it degrades to JSON.
// Either way the decoded delta is identical, and the header-less full
// export decodes to the same state in either representation.
func TestBinaryExportNegotiation(t *testing.T) {
	cat := catalog.New(dtype.StandardRegistry())
	seedExportState(t, cat)
	srv := NewServer("nego-vdc", cat)

	modern := httptest.NewServer(srv)
	defer modern.Close()
	legacy := httptest.NewServer(stripAccept(srv))
	defer legacy.Close()

	want, _, err := NewClient(legacy.URL).ExportSince(t.Context(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, n, err := NewClient(modern.URL).ExportSince(t.Context(), 0, 0)
	if err != nil || n == 0 {
		t.Fatalf("binary delta: %v (n=%d)", err, n)
	}
	gj, _ := json.Marshal(got)
	wj, _ := json.Marshal(want)
	if string(gj) != string(wj) {
		t.Fatalf("binary delta differs from JSON delta:\n%s\n---\n%s", gj, wj)
	}

	req, _ := http.NewRequest("GET", modern.URL+"/v1/export", nil)
	req.Header.Set("Accept", codec.BinaryContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	exp, err := codec.DecodeSnapshot(body)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := schema.CanonicalBytes(exp)
	wantJSON, _ := schema.CanonicalBytes(want.Export)
	if string(gotJSON) != string(wantJSON) {
		t.Fatal("binary full export differs from the JSON full delta")
	}
}

// TestBinaryWireContentType pins the negotiation matrix at the HTTP
// level: Accept decides the representation, JSON stays the default.
func TestBinaryWireContentType(t *testing.T) {
	cat := catalog.New(dtype.StandardRegistry())
	seedExportState(t, cat)
	hs := httptest.NewServer(NewServer("ct-vdc", cat))
	defer hs.Close()

	cases := []struct {
		accept, wantCT string
	}{
		{"", codec.JSONContentType},
		{"application/json", codec.JSONContentType},
		{"*/*", codec.JSONContentType},
		{codec.BinaryContentType, codec.BinaryContentType},
		{codec.BinaryContentType + ", application/json;q=0.5", codec.BinaryContentType},
	}
	for _, path := range []string{"/v1/export", "/v1/export?since=0&instance=0",
		"/v1/datasets?query=*", "/v1/transformations?query=*", "/v1/derivations?query=*"} {
		for _, tc := range cases {
			req, _ := http.NewRequest("GET", hs.URL+path, nil)
			if tc.accept != "" {
				req.Header.Set("Accept", tc.accept)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if ct := resp.Header.Get("Content-Type"); ct != tc.wantCT {
				t.Errorf("%s with Accept=%q: Content-Type %q, want %q", path, tc.accept, ct, tc.wantCT)
			}
			// A shared cache must not hand one representation to a
			// client that asked for the other.
			if v := resp.Header.Get("Vary"); v != "Accept" {
				t.Errorf("%s with Accept=%q: Vary %q, want Accept", path, tc.accept, v)
			}
		}
	}
}

// TestAcceptsBinary pins the Accept parsing: binary only when offered
// with a non-zero quality.
func TestAcceptsBinary(t *testing.T) {
	bin := codec.BinaryContentType
	for _, tc := range []struct {
		accept string
		want   bool
	}{
		{"", false},
		{"*/*", false},
		{"application/json", false},
		{"application/json;q=0.9, */*;q=0.1", false},
		{bin + ", application/json", true},
		{"application/json, " + bin, true},
		{bin + ";q=0", false},
		{bin + "; q=0.000, application/json", false},
		{bin + ";q=0.5, application/json", true},
		{bin + ";q=1", true},
		{"APPLICATION/X-VDG-Binary", false}, // the media type matches exactly, as it always has
		{"  application/json ,\t" + bin + " ; Q = 0 ", false},
		{" application/json ,  " + bin + " ", true},
	} {
		if got := acceptsBinary(tc.accept); got != tc.want {
			t.Errorf("acceptsBinary(%q) = %v, want %v", tc.accept, got, tc.want)
		}
	}
}

// TestBinarySearchNegotiation: for every kind of search, the binary
// reply decodes to the same rows as the JSON reply, a client gets the
// same answers from a binary-capable and a JSON-only server, and a
// header-less request still gets JSON.
func TestBinarySearchNegotiation(t *testing.T) {
	cat := catalog.New(dtype.StandardRegistry())
	seedExportState(t, cat)
	if err := cat.AddTransformation(twoArg("u")); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddDataset(schema.Dataset{Name: "d", Descriptor: schema.FileDescriptor{Path: "/data/d"},
		Size: 4096, Attrs: schema.Attributes{"k": "d", "owner": "alice"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.AddDerivation(chainDV("u", "a.out", "a.out.out")); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"d", "a.out"} {
		if _, err := cat.BumpEpoch(name, false); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewServer("search-vdc", cat)
	modern := httptest.NewServer(srv)
	defer modern.Close()
	legacy := httptest.NewServer(stripAccept(srv))
	defer legacy.Close()

	// Each kind's queries, keyed by the number of rows they answer.
	type queries map[string]int
	clients := []*Client{NewClient(modern.URL), NewClient(legacy.URL)}
	for q, n := range (queries{"*": 6, "derived": 2, "attr.k = d": 1, "name = nothing": 0}) {
		want := checkSearchReply(t, modern.URL, "/v1/datasets", q, n, func(p *codec.Payload) []schema.Dataset { return p.Datasets })
		for _, c := range clients {
			got, err := c.SearchDatasets(q)
			requireSameRows(t, c.Base+" datasets "+q, got, want, err)
		}
	}
	// The fixture reaches every field a dataset row carries.
	all, _ := clients[0].SearchDatasets("*")
	var desc, epoch, createdBy, attrs bool
	for _, ds := range all {
		desc = desc || ds.Descriptor != nil
		epoch = epoch || ds.Epoch != 0
		createdBy = createdBy || ds.CreatedBy != ""
		attrs = attrs || len(ds.Attrs) > 0
	}
	if !desc || !epoch || !createdBy || !attrs {
		t.Fatalf("fixture misses a field: descriptor %v epoch %v createdBy %v attrs %v", desc, epoch, createdBy, attrs)
	}
	for q, n := range (queries{"*": 2, "name = t": 1, "name = nothing": 0}) {
		want := checkSearchReply(t, modern.URL, "/v1/transformations", q, n, func(p *codec.Payload) []schema.Transformation { return p.Transformations })
		for _, c := range clients {
			got, err := c.SearchTransformations(q)
			requireSameRows(t, c.Base+" transformations "+q, got, want, err)
		}
	}
	for q, n := range (queries{"*": 2, "produces(a.out.out)": 1, "consumes(nothing)": 0}) {
		want := checkSearchReply(t, modern.URL, "/v1/derivations", q, n, func(p *codec.Payload) []schema.Derivation { return p.Derivations })
		for _, c := range clients {
			got, err := c.SearchDerivations(q)
			requireSameRows(t, c.Base+" derivations "+q, got, want, err)
		}
	}
}

// checkSearchReply fetches one search as JSON (no Accept header) and as
// binary, requires both to decode to the same n rows, and returns them.
func checkSearchReply[T any](t *testing.T, base, path, q string, n int, pick func(*codec.Payload) []T) []T {
	t.Helper()
	get := func(accept string) ([]byte, string) {
		req, _ := http.NewRequest("GET", base+path+"?query="+url.QueryEscape(q), nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %q: status %d, %v", path, q, resp.StatusCode, err)
		}
		return body, resp.Header.Get("Content-Type")
	}
	body, ct := get("")
	if ct != codec.JSONContentType {
		t.Fatalf("%s %q without Accept: Content-Type %q, want JSON", path, q, ct)
	}
	var want []T
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != n {
		t.Fatalf("%s %q: %d rows, want %d", path, q, len(want), n)
	}
	body, ct = get(codec.BinaryContentType)
	if ct != codec.BinaryContentType {
		t.Fatalf("%s %q with binary Accept: Content-Type %q", path, q, ct)
	}
	p, err := codec.DecodeReply(body)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRows(t, path+" "+q+" binary", pick(p), want, nil)
	return want
}

// requireSameRows compares two replies; nil and empty are the same
// answer.
func requireSameRows[T any](t *testing.T, what string, got, want []T, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if len(got) == 0 && len(want) == 0 {
		return
	}
	if !reflect.DeepEqual(got, want) {
		gj, _ := json.Marshal(got)
		wj, _ := json.Marshal(want)
		t.Fatalf("%s: rows differ:\n%s\n---\n%s", what, gj, wj)
	}
}

// TestBinaryDeltaSmallerOnWire: the negotiated binary delta body must
// be materially smaller than the JSON body for the same state.
func TestBinaryDeltaSmallerOnWire(t *testing.T) {
	cat := catalog.New(dtype.StandardRegistry())
	if err := cat.AddTransformation(twoArg("t")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		name := fmt.Sprintf("lfn://cms/run%03d/reco-%04d.root", i%40, i)
		if err := cat.AddDataset(schema.Dataset{Name: name, Size: int64(i) * 7919, Attrs: schema.Attributes{
			"run": fmt.Sprint(i % 40), "site": "anl", "owner": "cms-prod", "quality": "approved",
		}}); err != nil {
			t.Fatal(err)
		}
		if err := cat.AddReplica(schema.Replica{
			ID: fmt.Sprintf("rep-%04d", i), Dataset: name, Site: "anl",
			PFN: "gsiftp://gridftp.anl.gov" + name[5:], Size: int64(i) * 7919,
			Attrs: schema.Attributes{"checksum": fmt.Sprintf("adler32:%08x", i*2654435761)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewServer("size-vdc", cat)
	hs := httptest.NewServer(srv)
	defer hs.Close()
	js := httptest.NewServer(stripAccept(srv))
	defer js.Close()

	jc := NewClient(js.URL)
	bc := NewClient(hs.URL)
	_, nj, err := jc.ExportSince(t.Context(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, nb, err := bc.ExportSince(t.Context(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if nb*2 > nj {
		t.Fatalf("binary delta %d bytes, JSON %d: want >=2x smaller", nb, nj)
	}
}
