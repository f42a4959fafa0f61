package catalog

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"chimera/internal/codec"
	"chimera/internal/dtype"
	"chimera/internal/schema"
)

// churn runs n random mutations on c. Names come from small pools, so
// catalogs churned from different seeds collide: the same dataset,
// transformation or replica defined differently. A refused mutation is
// part of the history and ignored.
func churn(rng *rand.Rand, c *Catalog, n int) {
	pick := func(prefix string, k int) string { return fmt.Sprintf("%s%d", prefix, rng.Intn(k)) }
	for i := 0; i < n; i++ {
		switch rng.Intn(12) {
		case 0:
			c.DefineType(dtype.Content, pick("T", 3), "")
			c.DefineType(dtype.Content, pick("U", 3), pick("T", 3))
		case 1, 2:
			ds := schema.Dataset{Name: pick("ds", 16), Attrs: schema.Attributes{"v": pick("", 3)}}
			if rng.Intn(3) == 0 {
				ds.Type = dtype.Type{Content: pick("T", 3)}
			}
			c.AddDataset(ds)
		case 3:
			if ds, err := c.Dataset(pick("ds", 16)); err == nil {
				ds.Attrs = schema.Attributes{"rev": pick("", 5)}
				c.UpdateDataset(ds)
			}
		case 4:
			c.BumpEpoch(pick("ds", 16), rng.Intn(2) == 0)
		case 5:
			tr := twoArg(pick("tr", 5))
			if rng.Intn(2) == 0 {
				tr.Version = "1" // derivations cite it versionless
			}
			if rng.Intn(4) == 0 {
				tr.Exec = "/other"
			}
			if rng.Intn(4) == 0 {
				tr.Args[1].Types = []dtype.Type{{Content: pick("T", 3)}}
			}
			c.AddTransformation(tr)
		case 6, 7:
			in := pick("ds", 16)
			if rng.Intn(3) == 0 {
				in = pick("out", 24)
			}
			c.AddDerivation(chainDV(pick("tr", 5), in, pick("out", 24)))
		case 8:
			if dvs := c.Derivations(); len(dvs) > 0 {
				start := time.Unix(int64(rng.Intn(1000)), 0).UTC()
				c.AddInvocation(schema.Invocation{ID: pick("iv", 12), Derivation: dvs[rng.Intn(len(dvs))].ID,
					Start: start, End: start.Add(time.Second)})
			}
		case 9:
			c.AddReplica(schema.Replica{ID: pick("r", 12), Dataset: pick("ds", 16), Site: pick("s", 2), PFN: pick("/p", 3)})
		case 10:
			c.RemoveReplica(pick("r", 12))
		case 11:
			c.AssertCompatibility(schema.CompatibilityAssertion{Name: pick("tr", 5), V1: "1", V2: pick("", 3), Mode: schema.Equivalent})
		}
	}
}

// snapshotSum is the SHA-256 of c's canonical export bytes.
func snapshotSum(t *testing.T, c *Catalog) [32]byte {
	t.Helper()
	exp := c.Export()
	var buf bytes.Buffer
	if err := codec.EncodeSnapshot(&buf, &exp); err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(buf.Bytes())
}

// --- the loops the batch path replaced, kept as oracles -------------------

// oneAtATime is Import as it was: each object through its public
// mutator, stopping at the first failure.
func oneAtATime(c *Catalog, exp Export) error {
	if exp.Types != nil {
		var err error
		exp.Types.Each(func(d dtype.Dimension, name, parent string) {
			if err == nil {
				err = c.DefineType(d, name, parent)
			}
		})
		if err != nil {
			return err
		}
	}
	for _, tr := range exp.Transformations {
		if err := c.AddTransformation(tr); err != nil {
			return err
		}
	}
	for _, ds := range exp.Datasets {
		ds.CreatedBy = ""
		if err := c.AddDataset(ds); err != nil && !errors.Is(err, ErrExists) {
			return err
		}
	}
	for _, dv := range exp.Derivations {
		if _, err := c.AddDerivation(dv); err != nil && !errors.Is(err, ErrDuplicate) {
			return err
		}
	}
	for _, iv := range exp.Invocations {
		if err := c.AddInvocation(iv); err != nil && !errors.Is(err, ErrExists) {
			return err
		}
	}
	for _, r := range exp.Replicas {
		if err := c.AddReplica(r); err != nil && !errors.Is(err, ErrExists) {
			return err
		}
	}
	for _, a := range exp.Compat {
		if err := c.AssertCompatibility(a); err != nil {
			return err
		}
	}
	return nil
}

// oldImportTolerant is ImportTolerant as it was.
func oldImportTolerant(c *Catalog, exp Export) int {
	skipped := 0
	tolerate := func(err error, ok error) {
		if err != nil && (ok == nil || !errors.Is(err, ok)) {
			skipped++
		}
	}
	if exp.Types != nil {
		c.Types().Merge(exp.Types)
	}
	for _, tr := range exp.Transformations {
		tolerate(c.AddTransformation(tr), nil)
	}
	for _, ds := range exp.Datasets {
		ds.CreatedBy = ""
		tolerate(c.AddDataset(ds), ErrExists)
	}
	for _, dv := range exp.Derivations {
		_, err := c.AddDerivation(dv)
		tolerate(err, ErrDuplicate)
	}
	for _, iv := range exp.Invocations {
		tolerate(c.AddInvocation(iv), ErrExists)
	}
	for _, r := range exp.Replicas {
		tolerate(c.AddReplica(r), ErrExists)
	}
	for _, a := range exp.Compat {
		tolerate(c.AssertCompatibility(a), nil)
	}
	return skipped
}

// oldApplyDelta is ApplyDelta as it was, its upserts spelled with the
// public mutators.
func oldApplyDelta(c *Catalog, d Delta) int {
	skipped := 0
	tolerate := func(err error, ok error) {
		if err != nil && (ok == nil || !errors.Is(err, ok)) {
			skipped++
		}
	}
	upsertDataset := func(ds schema.Dataset) error {
		if err := ds.Validate(); err != nil {
			return err
		}
		if err := c.Types().CheckType(ds.Type); err != nil {
			return err
		}
		old, err := c.Dataset(ds.Name)
		ds.CreatedBy = old.CreatedBy
		switch {
		case err != nil:
			return c.AddDataset(ds)
		case ds.Epoch < old.Epoch:
			return ErrConflict
		}
		return c.UpdateDataset(ds)
	}
	upsertReplica := func(r schema.Replica) error {
		if err := r.Validate(); err != nil {
			return err
		}
		if _, err := c.Dataset(r.Dataset); err != nil {
			return err
		}
		for _, old := range c.Export().Replicas {
			if old.ID == r.ID {
				if equalJSON(old, r) {
					return nil
				}
				c.RemoveReplica(r.ID)
			}
		}
		return c.AddReplica(r)
	}
	if d.Export.Types != nil {
		c.Types().Merge(d.Export.Types)
	}
	for _, tr := range d.Export.Transformations {
		tolerate(c.AddTransformation(tr), nil)
	}
	for _, ds := range d.Export.Datasets {
		tolerate(upsertDataset(ds), nil)
	}
	for _, dv := range d.Export.Derivations {
		_, err := c.AddDerivation(dv)
		tolerate(err, ErrDuplicate)
	}
	for _, iv := range d.Export.Invocations {
		tolerate(c.AddInvocation(iv), ErrExists)
	}
	for _, t := range d.Tombstones {
		if t.Kind != "replica" {
			skipped++
			continue
		}
		tolerate(c.RemoveReplica(t.ID), ErrNotFound)
	}
	for _, r := range d.Export.Replicas {
		tolerate(upsertReplica(r), nil)
	}
	for _, a := range d.Export.Compat {
		tolerate(c.AssertCompatibility(a), nil)
	}
	return skipped
}

// garble appends objects no catalog accepts, so tolerant batches have
// validation failures to count too.
func garble(rng *rand.Rand, exp *Export) {
	if rng.Intn(2) == 0 {
		exp.Replicas = append(exp.Replicas, schema.Replica{ID: "bad", Dataset: "ds0"})
	}
	if rng.Intn(2) == 0 {
		exp.Compat = append(exp.Compat, schema.CompatibilityAssertion{Name: "tr0", V1: "1", V2: "2", Mode: "maybe"})
	}
	if rng.Intn(2) == 0 {
		exp.Derivations = append(exp.Derivations, chainDV("nope", "ds0", "ghost"))
	}
}

// TestBatchMatchesOneAtATime: a strict batch of a catalog's export
// leaves the same canonical bytes as the same records taken in one at a
// time through the public mutators, on top of the same earlier state,
// and a refused batch changes nothing.
func TestBatchMatchesOneAtATime(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		src := New(nil)
		batched, single := New(nil), New(nil)
		for round := 0; round < 6; round++ {
			churn(rng, src, 5+rng.Intn(25))
			exp := src.Export()
			if rng.Intn(4) == 0 {
				garble(rng, &exp)
			}
			before := snapshotSum(t, batched)
			errB := batched.Import(exp)
			errS := oneAtATime(single, exp)
			if (errB == nil) != (errS == nil) {
				t.Fatalf("seed %d round %d: batch %v, one at a time %v", seed, round, errB, errS)
			}
			if errB != nil {
				if snapshotSum(t, batched) != before {
					t.Fatalf("seed %d round %d: refused batch (%v) changed the catalog", seed, round, errB)
				}
				// The one-at-a-time import stopped partway: start both
				// over from the batch's state.
				single = New(nil)
				if err := single.Import(batched.Export()); err != nil {
					t.Fatal(err)
				}
				continue
			}
			if snapshotSum(t, batched) != snapshotSum(t, single) {
				t.Fatalf("seed %d round %d: batch and one-at-a-time exports differ", seed, round)
			}
			if err := batched.CheckIndexes(); err != nil {
				t.Fatalf("seed %d round %d: %v", seed, round, err)
			}
		}
	}
}

// TestBatchTolerantMatchesOldLoops: ImportTolerant and ApplyDelta skip
// what the per-object loops they replaced skipped, and leave the same
// canonical bytes, over colliding members and garbled exports.
func TestBatchTolerantMatchesOldLoops(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		members := []*Catalog{New(nil), New(nil), New(nil)}
		newIx, oldIx := New(nil), New(nil)
		newFold, oldFold := New(nil), New(nil)
		// The folding pair starts from the same colliding state.
		churn(rand.New(rand.NewSource(-seed)), newFold, 30)
		churn(rand.New(rand.NewSource(-seed)), oldFold, 30)
		var seq uint64
		for round := 0; round < 6; round++ {
			for _, m := range members {
				churn(rng, m, 3+rng.Intn(15))
			}
			for i, m := range members {
				exp := m.Export()
				garble(rng, &exp)
				if got, want := newIx.ImportTolerant(exp), oldImportTolerant(oldIx, exp); got != want {
					t.Fatalf("seed %d round %d member %d: ImportTolerant skipped %d, the old loop %d", seed, round, i, got, want)
				}
			}
			if snapshotSum(t, newIx) != snapshotSum(t, oldIx) {
				t.Fatalf("seed %d round %d: ImportTolerant diverged from the old loop", seed, round)
			}

			d := members[0].ChangesSince(seq, members[0].Instance())
			seq = d.Seq
			if rng.Intn(3) == 0 {
				d.Tombstones = append(d.Tombstones, Tombstone{Kind: "dataset", ID: "ds1"}, Tombstone{Kind: "replica", ID: "r-gone"})
			}
			if got, want := newFold.ApplyDelta(d), oldApplyDelta(oldFold, d); got != want {
				t.Fatalf("seed %d round %d: ApplyDelta skipped %d, the old loop %d", seed, round, got, want)
			}
			if snapshotSum(t, newFold) != snapshotSum(t, oldFold) {
				t.Fatalf("seed %d round %d: ApplyDelta diverged from the old loop", seed, round)
			}
			for _, c := range []*Catalog{newIx, newFold} {
				if err := c.CheckIndexes(); err != nil {
					t.Fatalf("seed %d round %d: %v", seed, round, err)
				}
			}
		}
	}
}

// TestBatchImportAtomic: an export that fails a check anywhere is
// refused whole — the case from the field is a last derivation citing
// an unknown transformation.
func TestBatchImportAtomic(t *testing.T) {
	src := New(nil)
	if err := src.AddTransformation(twoArg("t")); err != nil {
		t.Fatal(err)
	}
	if _, err := src.AddDerivation(chainDV("t", "a", "b")); err != nil {
		t.Fatal(err)
	}
	conflicting := dtype.NewRegistry()
	conflicting.MustRegister(dtype.Content, "HEP", "")
	conflicting.MustRegister(dtype.Content, "Mine", "HEP")
	for _, tc := range []struct {
		name string
		bad  func(exp *Export)
		want error
	}{
		{"unknown transformation", func(exp *Export) {
			exp.Derivations = append(exp.Derivations, chainDV("nope", "b", "c"))
		}, ErrNotFound},
		{"two producers in one batch", func(exp *Export) {
			exp.Derivations = append(exp.Derivations, chainDV("t", "x", "y"), chainDV("t", "z", "y"))
		}, ErrConflict},
		{"type conflict", func(exp *Export) { exp.Types = conflicting }, nil},
	} {
		exp := src.Export()
		tc.bad(&exp)
		c := New(nil)
		c.DefineType(dtype.Content, "Mine", "")
		if err := c.AddDataset(schema.Dataset{Name: "mine"}); err != nil {
			t.Fatal(err)
		}
		before, seq := snapshotSum(t, c), c.Seq()
		err := c.Import(exp)
		if err == nil || tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("%s: Import returned %v, want %v", tc.name, err, tc.want)
		}
		if snapshotSum(t, c) != before || c.Seq() != seq {
			t.Errorf("%s: refused Import changed the catalog: %+v", tc.name, c.Stats())
		}
	}
}

// TestBatchTypesSurviveReopen: a type a durable catalog takes in through
// ImportTolerant or ApplyDelta is logged like any other record.
func TestBatchTypesSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, nil, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	reg := dtype.NewRegistry()
	reg.MustRegister(dtype.Content, "HEP", "")
	if n := c.ImportTolerant(Export{Types: reg}); n != 0 {
		t.Fatalf("ImportTolerant skipped %d", n)
	}
	reg = reg.Clone()
	reg.MustRegister(dtype.Content, "Events", "HEP")
	if n := c.ApplyDelta(Delta{Export: Export{Types: reg}}); n != 0 {
		t.Fatalf("ApplyDelta skipped %d", n)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c, err = Open(dir, nil, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.Types().Names(dtype.Content); !c.Types().IsSubtype(dtype.Content, "Events", "HEP") {
		t.Fatalf("after reopen the content types are %v, want HEP and Events under it", got)
	}
}

// TestBatchOneGroupCommit: a durable batch is logged as one group and
// waits for one commit.
func TestBatchOneGroupCommit(t *testing.T) {
	c, err := Open(t.TempDir(), nil, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var exp Export
	for i := 0; i < 5000; i++ {
		exp.Datasets = append(exp.Datasets, schema.Dataset{Name: fmt.Sprintf("d%d", i)})
	}
	batches0, records0 := WALBatchStats()
	start := time.Now()
	if err := c.Import(exp); err != nil {
		t.Fatal(err)
	}
	took := time.Since(start)
	if batches, records := WALBatchStats(); batches-batches0 != 1 || records-records0 != 5000 {
		t.Fatalf("%v records in %d group commits, want 5000 in 1", records-records0, batches-batches0)
	}
	t.Logf("5,000 datasets, one durable batch: %v", took)
}
