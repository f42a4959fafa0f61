package vds

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"

	"chimera/internal/catalog"
	"chimera/internal/codec"
	"chimera/internal/dtype"
	"chimera/internal/query"
	"chimera/internal/schema"
)

// TestSearchRepliesDuringWrites encodes search replies, binary and
// JSON, while a writer replaces the datasets they carry. A reply is
// encoded from the result slice after its View has closed, reading
// Attrs maps it shares with the catalog; run it under -race.
func TestSearchRepliesDuringWrites(t *testing.T) {
	cat := catalog.New(dtype.StandardRegistry())
	const n = 50
	for i := 0; i < n; i++ {
		if err := cat.AddDataset(schema.Dataset{Name: fmt.Sprintf("ds%02d", i),
			Attrs: schema.Attributes{"tag": "hot", "rev": "0"}}); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewServer("race-vdc", cat)
	modern := httptest.NewServer(srv)
	defer modern.Close()
	legacy := httptest.NewServer(stripAccept(srv))
	defer legacy.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for rev := 1; ; rev++ {
			select {
			case <-stop:
				return
			default:
			}
			ds := schema.Dataset{Name: fmt.Sprintf("ds%02d", rev%n), Epoch: rev,
				Attrs: schema.Attributes{"tag": "hot", "rev": fmt.Sprint(rev)}}
			if err := cat.UpdateDataset(ds); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var readers sync.WaitGroup
	for _, base := range []string{modern.URL, legacy.URL} {
		readers.Add(1)
		go func(c *Client) {
			defer readers.Done()
			for i := 0; i < 40; i++ {
				got, err := c.SearchDatasets("attr.tag = hot")
				if err != nil {
					t.Error(err)
					return
				}
				if len(got) != n {
					t.Errorf("%s: %d rows, want %d", c.Base, len(got), n)
					return
				}
			}
		}(NewClient(base))
	}
	readers.Wait()
	close(stop)
	wg.Wait()
}

// freshReply encodes the reply a search should get: the query run with
// the result cache off, encoded as JSON (the bare array, "[]" when
// empty) or as a binary/v1 frame holding only the kind's section.
func freshReply(t *testing.T, cat *catalog.Catalog, kind query.Kind, q string, binary bool) []byte {
	t.Helper()
	query.SetPlanCacheCapacity(0)
	res, err := query.Search(cat, kind, q)
	query.SetPlanCacheCapacity(query.DefaultPlanCacheCapacity)
	if err != nil {
		t.Fatal(err)
	}
	var p codec.Payload
	var v any
	switch kind {
	case query.KDataset:
		p.Datasets, v = res.Datasets, append([]schema.Dataset{}, res.Datasets...)
	case query.KTransformation:
		p.Transformations, v = res.Transformations, append([]schema.Transformation{}, res.Transformations...)
	default:
		p.Derivations, v = res.Derivations, append([]schema.Derivation{}, res.Derivations...)
	}
	var buf bytes.Buffer
	if binary {
		err = codec.EncodeReply(&buf, &p)
	} else {
		err = json.NewEncoder(&buf).Encode(v)
	}
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSearchReplyMemoRandomized is the reply memo's oracle at the
// server: across a random history of writes, every search body served,
// binary and header-less JSON, first request and repeat, is byte for
// byte the encoding of a fresh uncached run at the same state.
func TestSearchReplyMemoRandomized(t *testing.T) {
	t.Cleanup(func() { query.SetPlanCacheCapacity(query.DefaultPlanCacheCapacity) })
	r := rand.New(rand.NewSource(1))
	cat := catalog.New(dtype.StandardRegistry())
	if err := cat.AddTransformation(schema.Transformation{Namespace: "t", Name: "gen", Kind: schema.Simple, Exec: "/bin/gen",
		Args: []schema.FormalArg{{Name: "o", Direction: schema.Out}, {Name: "i", Direction: schema.In}}}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer("memo", cat))
	defer srv.Close()
	tags := []string{"hot", "cold"}
	var names []string
	step := func(i int) {
		switch op := r.Intn(5); {
		case op == 0 || len(names) == 0:
			name := fmt.Sprintf("ds%d", i)
			if err := cat.AddDataset(schema.Dataset{Name: name, Attrs: schema.Attributes{"tag": tags[r.Intn(2)]}}); err != nil {
				t.Fatal(err)
			}
			names = append(names, name)
		case op == 1:
			ds, err := cat.Dataset(names[r.Intn(len(names))])
			if err != nil {
				t.Fatal(err)
			}
			ds.Attrs = schema.Attributes{"tag": tags[r.Intn(2)], "rev": fmt.Sprint(i)}
			if err := cat.UpdateDataset(ds); err != nil {
				t.Fatal(err)
			}
		case op == 2:
			if err := cat.AddReplica(schema.Replica{ID: fmt.Sprintf("r%d", i), Dataset: names[r.Intn(len(names))],
				Site: "s", PFN: fmt.Sprintf("/r%d", i)}); err != nil {
				t.Fatal(err)
			}
		case op == 3:
			if _, err := cat.BumpEpoch(names[r.Intn(len(names))], r.Intn(2) == 0); err != nil {
				t.Fatal(err)
			}
		default:
			out := fmt.Sprintf("ds%d.out", i)
			if _, err := cat.AddDerivation(schema.Derivation{TR: "t::gen", Params: map[string]schema.Actual{
				"o": schema.DatasetActual("output", out), "i": schema.DatasetActual("input", names[r.Intn(len(names))]),
			}}); err != nil {
				t.Fatal(err)
			}
			names = append(names, out)
		}
	}
	pool := []struct {
		path string
		kind query.Kind
		q    string
	}{
		{"datasets", query.KDataset, "attr.tag = hot"}, {"datasets", query.KDataset, `name ~ "ds1*"`},
		{"datasets", query.KDataset, "*"}, {"datasets", query.KDataset, "derived and not materialized"},
		{"datasets", query.KDataset, "materialized"}, {"datasets", query.KDataset, "name = nosuch"},
		{"derivations", query.KDerivation, "*"}, {"derivations", query.KDerivation, "tr = t::gen"},
		{"transformations", query.KTransformation, `name ~ "t::*"`},
	}
	get := func(path, q string, binary bool) []byte {
		req, err := http.NewRequest("GET", srv.URL+"/v1/"+path+"?query="+url.QueryEscape(q), nil)
		if err != nil {
			t.Fatal(err)
		}
		if binary {
			req.Header.Set("Accept", codec.BinaryContentType)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s %q: %d %v", path, q, resp.StatusCode, err)
		}
		return body
	}
	hits := query.CacheStats().Hits
	for i := 0; i < 60; i++ {
		step(i)
		for _, s := range pool {
			for _, binary := range []bool{false, true} {
				want := freshReply(t, cat, s.kind, s.q, binary)
				for rep := 0; rep < 2; rep++ {
					if got := get(s.path, s.q, binary); !bytes.Equal(got, want) {
						t.Fatalf("step %d: %s %q (binary %v, request %d): served body differs from a fresh encode",
							i, s.path, s.q, binary, rep+1)
					}
				}
			}
		}
	}
	if query.CacheStats().Hits == hits {
		t.Fatal("no search was answered from the cache")
	}
}

// searchRows builds a discovery reply of n datasets shaped like the
// benchmark's: raw datasets with a size and two tags, each followed by
// a derived one that names its producer.
func searchRows(n int) []schema.Dataset {
	rows := make([]schema.Dataset, 0, n)
	for i := 0; len(rows) < n; i++ {
		if i%2 == 0 {
			rows = append(rows, schema.Dataset{Name: fmt.Sprintf("cms.raw.%07d", i), Size: 1_000_000_000 + int64(i)*7919,
				Attrs: schema.Attributes{"tag": fmt.Sprintf("t%04d", i%977), "project": "cms"}})
		} else {
			rows = append(rows, schema.Dataset{Name: fmt.Sprintf("cms.s0.%07d", i),
				CreatedBy: fmt.Sprintf("dv-%016x", uint64(i)*0x9e3779b97f4a7c15)})
		}
	}
	return rows
}

// tagRows builds the reply of one tag query over n raw datasets: every
// row carries the same {project, tag} set.
func tagRows(n int) []schema.Dataset {
	rows := make([]schema.Dataset, n)
	for i := range rows {
		rows[i] = schema.Dataset{Name: fmt.Sprintf("cms.raw.%07d", i), Size: 1_000_000_000 + int64(i)*7919,
			Attrs: schema.Attributes{"tag": "t0042", "project": "cms"}}
	}
	return rows
}

var searchSink any

// BenchmarkSearchReply measures one search reply's encode (server) and
// decode (client) in each negotiated representation, reporting its
// size, from a one-row reply to one as wide as discover_wide's widest
// tag queries: mixed rows (searchRows), then one tag query's rows
// (tagRows), whose attribute sets are all equal.
func BenchmarkSearchReply(b *testing.B) {
	type shape struct {
		name string
		rows []schema.Dataset
	}
	var shapes []shape
	for _, n := range []int{1, 100, 625} {
		shapes = append(shapes, shape{fmt.Sprintf("rows=%d", n), searchRows(n)})
	}
	shapes = append(shapes, shape{"tag/rows=625", tagRows(625)})
	for _, sh := range shapes {
		rows := sh.rows
		var js, bin bytes.Buffer
		if err := json.NewEncoder(&js).Encode(rows); err != nil {
			b.Fatal(err)
		}
		if err := codec.EncodeReply(&bin, &codec.Payload{Datasets: rows}); err != nil {
			b.Fatal(err)
		}
		encode := map[string]func(*bytes.Buffer) error{
			"json":   func(buf *bytes.Buffer) error { return json.NewEncoder(buf).Encode(rows) },
			"binary": func(buf *bytes.Buffer) error { return codec.EncodeReply(buf, &codec.Payload{Datasets: rows}) },
		}
		decode := map[string]func() (any, error){
			"json": func() (any, error) {
				var out []schema.Dataset
				return out, json.Unmarshal(js.Bytes(), &out)
			},
			"binary": func() (any, error) { return codec.DecodeReply(bin.Bytes()) },
		}
		size := map[string]int{"json": js.Len(), "binary": bin.Len()}
		for _, format := range []string{"json", "binary"} {
			b.Run(sh.name+"/"+format+"/encode", func(b *testing.B) {
				var buf bytes.Buffer
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					buf.Reset()
					if err := encode[format](&buf); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(size[format]), "B/reply")
			})
			b.Run(sh.name+"/"+format+"/decode", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					v, err := decode[format]()
					if err != nil {
						b.Fatal(err)
					}
					searchSink = v
				}
				b.ReportMetric(float64(size[format]), "B/reply")
			})
		}
	}
}
