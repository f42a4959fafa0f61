package vds

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"

	"chimera/internal/catalog"
	"chimera/internal/codec"
	"chimera/internal/dtype"
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

var searchSink any

// BenchmarkSearchReply measures one search reply's encode (server) and
// decode (client) in each negotiated representation, reporting its
// size, from a one-row reply to one as wide as discover_wide's widest
// tag queries.
func BenchmarkSearchReply(b *testing.B) {
	for _, n := range []int{1, 100, 625} {
		rows := searchRows(n)
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
			b.Run(fmt.Sprintf("rows=%d/%s/encode", n, format), func(b *testing.B) {
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
			b.Run(fmt.Sprintf("rows=%d/%s/decode", n, format), func(b *testing.B) {
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
