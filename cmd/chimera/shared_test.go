package main

import (
	"bytes"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"sync"
	"testing"

	"chimera/internal/catalog"
	"chimera/internal/codec"
	"chimera/internal/dtype"
	"chimera/internal/query"
	"chimera/internal/schema"
)

// TestSharedAttrMapsStayUnchanged: a catalog opened from its snapshot
// holds one decoded attribute map for a run of datasets with equal sets
// (codec.DecodeSnapshot), and so does a decoded delta. Every path that
// replaces one dataset's attributes — UpdateDataset, a folded federation
// delta, chimera annotate — must leave that map alone: the others'
// Attrs and the indexes built from them stay as they were. Searches and
// listings read the maps throughout, so -race reports a write into one.
func TestSharedAttrMapsStayUnchanged(t *testing.T) {
	dir := t.TempDir()
	cat, err := catalog.Open(dir, dtype.StandardRegistry(), catalog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 8)
	for i := range names {
		names[i] = fmt.Sprintf("d%d", i)
		if err := cat.AddDataset(schema.Dataset{Name: names[i], Attrs: schema.Attributes{"project": "cms", "tag": "t1"}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := cat.Close(); err != nil {
		t.Fatal(err)
	}
	if cat, err = catalog.Open(dir, dtype.StandardRegistry(), catalog.Options{}); err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	mapOf := func(name string) schema.Attributes {
		ds, err := cat.Dataset(name)
		if err != nil {
			t.Fatal(err)
		}
		return ds.Attrs
	}
	shared := reflect.ValueOf(mapOf("d0")).UnsafePointer()
	for _, name := range names[1:] {
		if reflect.ValueOf(mapOf(name)).UnsafePointer() != shared {
			t.Fatalf("%s does not share d0's decoded attribute map", name)
		}
	}

	stop := make(chan struct{})
	var wg, running sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		running.Add(1)
		go func() {
			defer wg.Done()
			ready := sync.OnceFunc(running.Done)
			defer ready()
			for n := 0; ; n++ {
				if n == 1 {
					ready()
				}
				select {
				case <-stop:
					return
				default:
				}
				res, err := query.Search(cat, query.KDataset, `attr.tag = "t1" and attr.project = "cms"`)
				if err != nil {
					t.Error(err)
					return
				}
				for _, ds := range append(res.Datasets, cat.Datasets()...) {
					if ds.Attrs["project"] != "cms" {
						t.Errorf("%s: project %q", ds.Name, ds.Attrs["project"])
						return
					}
				}
			}
		}()
	}

	running.Wait() // the searchers are reading: the updates race any in-place write
	ds, err := cat.Dataset("d1")
	if err != nil {
		t.Fatal(err)
	}
	ds.Attrs = maps.Clone(ds.Attrs)
	ds.Attrs["tag"] = "t2"
	if err := cat.UpdateDataset(ds); err != nil {
		t.Fatal(err)
	}

	// A delta off the wire: d2 and d3 share one decoded map in it.
	var wire bytes.Buffer
	set := schema.Attributes{"project": "cms", "tag": "t3"}
	if err := codec.EncodeDelta(&wire, &codec.Delta{Seq: 1, Export: codec.Payload{Datasets: []schema.Dataset{
		{Name: "d2", Attrs: set}, {Name: "d3", Attrs: set}}}}); err != nil {
		t.Fatal(err)
	}
	d, err := codec.DecodeDelta(wire.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Export.Datasets; reflect.ValueOf(got[0].Attrs).UnsafePointer() != reflect.ValueOf(got[1].Attrs).UnsafePointer() {
		t.Fatal("the decoded delta's datasets do not share their attribute map")
	}
	if skipped := cat.ApplyDelta(*d); skipped != 0 {
		t.Fatalf("delta fold skipped %d record(s)", skipped)
	}

	if err := annotate(cat, []string{"d4", "tag=t4"}); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	tags := map[string]string{"d1": "t2", "d2": "t3", "d3": "t3", "d4": "t4"}
	var untouched []string
	for _, name := range names {
		tag, ok := tags[name]
		if !ok {
			tag = "t1"
			untouched = append(untouched, name)
		}
		if got, want := mapOf(name), (schema.Attributes{"project": "cms", "tag": tag}); !maps.Equal(got, want) {
			t.Errorf("%s: attrs %v, want %v", name, got, want)
		}
	}
	if err := cat.CheckIndexes(); err != nil {
		t.Fatal(err)
	}
	res, err := query.Search(cat, query.KDataset, `attr.tag = "t1"`)
	if err != nil {
		t.Fatal(err)
	}
	var found []string
	for _, ds := range res.Datasets {
		found = append(found, ds.Name)
	}
	slices.Sort(found)
	if !slices.Equal(found, untouched) {
		t.Fatalf(`attr.tag = "t1" finds %v, want %v`, found, untouched)
	}
}
