package vds

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
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
	for _, path := range []string{"/v1/export", "/v1/export?since=0&instance=0"} {
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
		}
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
