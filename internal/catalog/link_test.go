package catalog

import (
	"bytes"
	"errors"
	"testing"

	"chimera/internal/codec"
	"chimera/internal/dtype"
	"chimera/internal/schema"
)

// The producer link: a derivation's outputs decide each dataset's
// CreatedBy, and no write of a dataset record changes it.

// requireLink fails unless every face of name's producer link reads
// want ("" for none): the record's CreatedBy, Producer, DerivedDatasets,
// and the indexes CheckIndexes rebuilds.
func requireLink(t *testing.T, c *Catalog, name, want string) {
	t.Helper()
	ds, err := c.Dataset(name)
	if err != nil {
		t.Fatal(err)
	}
	if ds.CreatedBy != want {
		t.Errorf("%s: CreatedBy %q, want %q", name, ds.CreatedBy, want)
	}
	dv, err := c.Producer(name)
	switch {
	case want == "" && !errors.Is(err, ErrNotFound):
		t.Errorf("%s: Producer = %q, %v; want none", name, dv.ID, err)
	case want != "" && (err != nil || dv.ID != want):
		t.Errorf("%s: Producer = %q, %v; want %q", name, dv.ID, err, want)
	}
	v := c.View()
	derived := v.DerivedDatasets().Has(name)
	v.Close()
	if derived != (want != "") {
		t.Errorf("%s: in DerivedDatasets = %v, want %v", name, derived, want != "")
	}
	if err := c.CheckIndexes(); err != nil {
		t.Error(err)
	}
}

// TestUpdateDatasetKeepsProducer: replacing a derived dataset's record
// without CreatedBy, or with another one, keeps the link, through
// replay and snapshot load too.
func TestUpdateDatasetKeepsProducer(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddTransformation(twoArg("t")); err != nil {
		t.Fatal(err)
	}
	dv, err := c.AddDerivation(chainDV("t", "in", "out"))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.UpdateDataset(schema.Dataset{Name: "out", Attrs: schema.Attributes{"pass": "1"}}); err != nil {
		t.Fatal(err)
	}
	requireLink(t, c, "out", dv.ID)
	if err := c.UpdateDataset(schema.Dataset{Name: "out", CreatedBy: "dv-other", Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.BumpEpoch("out", false); err != nil {
		t.Fatal(err)
	}
	requireLink(t, c, "out", dv.ID)
	requireLink(t, c, "in", "")
	for _, stage := range []string{"replay", "snapshot load"} {
		if stage == "snapshot load" {
			if err := c.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if c, err = Open(dir, nil, Options{}); err != nil {
			t.Fatal(err)
		}
		t.Run(stage, func(t *testing.T) {
			requireLink(t, c, "out", dv.ID)
			requireLink(t, c, "in", "")
		})
	}
	c.Close()
}

// TestAddDatasetIgnoresCreatedBy: a dataset record that names a
// producer — one that does not output it, or none at all — registers
// primary data; only a derivation makes a dataset derived.
func TestAddDatasetIgnoresCreatedBy(t *testing.T) {
	c := New(nil)
	if err := c.AddTransformation(twoArg("t")); err != nil {
		t.Fatal(err)
	}
	dv, err := c.AddDerivation(chainDV("t", "in", "out"))
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range []schema.Dataset{{Name: "raw", CreatedBy: dv.ID}, {Name: "raw2", CreatedBy: "dv-unknown"}} {
		if err := c.AddDataset(ds); err != nil {
			t.Fatalf("%s: %v", ds.Name, err)
		}
		requireLink(t, c, ds.Name, "")
	}
	// A derived dataset's record re-added as a caller may hold it,
	// without the link, is the same record.
	if err := c.AddDataset(schema.Dataset{Name: "out"}); err != nil {
		t.Fatal(err)
	}
	requireLink(t, c, "out", dv.ID)
	// The output of a later derivation is linked on registration.
	dv2, err := c.AddDerivation(chainDV("t", "out", "raw"))
	if err != nil {
		t.Fatal(err)
	}
	requireLink(t, c, "raw", dv2.ID)
}

// TestExportImportKeepsLinks: after an update of a derived dataset and
// an AddDataset naming a foreign producer, exporting, importing the
// export tolerantly into an empty catalog and exporting again gives
// the same bytes — the member and an index of it agree.
func TestExportImportKeepsLinks(t *testing.T) {
	src := New(nil)
	if err := src.AddTransformation(twoArg("t")); err != nil {
		t.Fatal(err)
	}
	dv, err := src.AddDerivation(chainDV("t", "in", "out"))
	if err != nil {
		t.Fatal(err)
	}
	if err := src.UpdateDataset(schema.Dataset{Name: "out", Attrs: schema.Attributes{"pass": "1"}}); err != nil {
		t.Fatal(err)
	}
	if err := src.AddDataset(schema.Dataset{Name: "raw", CreatedBy: dv.ID}); err != nil {
		t.Fatal(err)
	}
	encode := func(c *Catalog) []byte {
		exp := c.Export()
		var buf bytes.Buffer
		if err := codec.EncodeSnapshot(&buf, &exp); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	dst := New(nil)
	if skipped := dst.ImportTolerant(src.Export()); skipped != 0 {
		t.Fatalf("ImportTolerant skipped %d", skipped)
	}
	if !bytes.Equal(encode(src), encode(dst)) {
		t.Fatalf("export → ImportTolerant → export changed the bytes:\nsource: %+v\nimport: %+v", src.Datasets(), dst.Datasets())
	}
	requireLink(t, dst, "out", dv.ID)
	requireLink(t, dst, "raw", "")
}

// TestDerivationWritesNoMore: registering a derivation logs and
// journals one record per dataset it registers, plus itself; outputs
// already registered are linked without a record of their own.
func TestDerivationWritesNoMore(t *testing.T) {
	c, err := Open(t.TempDir(), dtype.StandardRegistry(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.AddTransformation(twoArg("t")); err != nil {
		t.Fatal(err)
	}
	if err := c.AddDataset(schema.Dataset{Name: "pre-out"}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		in, out string
		want    int // records logged and journal entries, each
	}{
		{"fresh-in", "fresh-out", 3},
		{"fresh-in", "pre-out", 1},
	} {
		_, records0 := WALBatchStats()
		seq0 := c.JournalState().Seq
		dv, err := c.AddDerivation(chainDV("t", tc.in, tc.out))
		if err != nil {
			t.Fatal(err)
		}
		_, records := WALBatchStats()
		if got := int(records - records0); got != tc.want {
			t.Errorf("%s -> %s: %d WAL records, want %d", tc.in, tc.out, got, tc.want)
		}
		if got := int(c.JournalState().Seq - seq0); got != tc.want {
			t.Errorf("%s -> %s: %d journal entries, want %d", tc.in, tc.out, got, tc.want)
		}
		requireLink(t, c, tc.out, dv.ID)
	}
}
