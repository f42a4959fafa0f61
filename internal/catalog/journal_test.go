package catalog

import (
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"chimera/internal/dtype"
	"chimera/internal/schema"
)

func jds(name string) schema.Dataset { return schema.Dataset{Name: name} }

func applyDelta(t *testing.T, base *Catalog, d Delta) *Catalog {
	t.Helper()
	// What a follower does: a full delta replaces its state, an
	// incremental one folds into it.
	if d.Full {
		base = New(nil)
	}
	if skipped := base.ApplyDelta(d); skipped > 0 {
		t.Fatalf("apply delta: %d records skipped", skipped)
	}
	return base
}

func TestJournalSeqAdvancesPerMutation(t *testing.T) {
	c := New(nil)
	if c.Seq() != 0 {
		t.Fatalf("fresh seq: %d", c.Seq())
	}
	if err := c.AddDataset(jds("a")); err != nil {
		t.Fatal(err)
	}
	s1 := c.Seq()
	if s1 == 0 {
		t.Fatal("seq did not advance")
	}
	// Identical re-add is a no-op: no new sequence.
	if err := c.AddDataset(jds("a")); err != nil {
		t.Fatal(err)
	}
	if c.Seq() != s1 {
		t.Errorf("no-op re-add advanced seq: %d -> %d", s1, c.Seq())
	}
	if err := c.AddDataset(jds("b")); err != nil {
		t.Fatal(err)
	}
	if c.Seq() <= s1 {
		t.Errorf("seq not monotonic: %d then %d", s1, c.Seq())
	}
}

func TestChangesSinceFastPathAndDelta(t *testing.T) {
	c := New(nil)
	if err := c.AddDataset(jds("a")); err != nil {
		t.Fatal(err)
	}
	inst, seq := c.Instance(), c.Seq()

	// Caller already current: empty header, no content.
	d := c.ChangesSince(seq, inst)
	if !d.Empty() || d.Seq != seq || d.Full {
		t.Fatalf("fast path: %+v", d)
	}

	// since == 0 always degrades to full (boot state predates journal).
	d = c.ChangesSince(0, inst)
	if !d.Full || len(d.Export.Datasets) != 1 {
		t.Fatalf("since=0: %+v", d)
	}

	// Incremental: only the new object ships.
	if err := c.AddDataset(jds("b")); err != nil {
		t.Fatal(err)
	}
	d = c.ChangesSince(seq, inst)
	if d.Full || len(d.Export.Datasets) != 1 || d.Export.Datasets[0].Name != "b" {
		t.Fatalf("delta: %+v", d)
	}
	if d.Seq != c.Seq() {
		t.Errorf("delta seq: %d want %d", d.Seq, c.Seq())
	}

	// Instance mismatch: full.
	if d := c.ChangesSince(seq, inst+1); !d.Full {
		t.Error("instance mismatch not full")
	}
	// Future sequence: full.
	if d := c.ChangesSince(c.Seq()+10, inst); !d.Full {
		t.Error("future seq not full")
	}
}

func TestChangesSinceTombstones(t *testing.T) {
	c := New(nil)
	if err := c.AddDataset(jds("d")); err != nil {
		t.Fatal(err)
	}
	if err := c.AddReplica(schema.Replica{ID: "r1", Dataset: "d", Site: "s", PFN: "u"}); err != nil {
		t.Fatal(err)
	}
	seq := c.Seq()
	if err := c.RemoveReplica("r1"); err != nil {
		t.Fatal(err)
	}
	d := c.ChangesSince(seq, c.Instance())
	if d.Full || len(d.Tombstones) != 1 || d.Tombstones[0] != (Tombstone{Kind: "replica", ID: "r1"}) {
		t.Fatalf("tombstone delta: %+v", d)
	}
	// Add+remove after the mark collapses to a tombstone, not a record.
	seq = c.Seq()
	if err := c.AddReplica(schema.Replica{ID: "r2", Dataset: "d", Site: "s", PFN: "u"}); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveReplica("r2"); err != nil {
		t.Fatal(err)
	}
	d = c.ChangesSince(seq, c.Instance())
	if len(d.Export.Replicas) != 0 || len(d.Tombstones) != 1 {
		t.Fatalf("collapse: %+v", d)
	}
}

func TestChangesSinceWindowOverflow(t *testing.T) {
	c := New(nil)
	c.SetJournalWindow(4)
	if err := c.AddDataset(jds("base")); err != nil {
		t.Fatal(err)
	}
	seq, inst := c.Seq(), c.Instance()
	for i := 0; i < 20; i++ {
		if err := c.AddDataset(jds(fmt.Sprintf("d%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	d := c.ChangesSince(seq, inst)
	if !d.Full {
		t.Fatalf("overflowed caller should get full export: %+v", d)
	}
	if len(d.Export.Datasets) != 21 {
		t.Errorf("full export datasets: %d", len(d.Export.Datasets))
	}
	// A caller just within the retained tail still gets a delta.
	seq = c.Seq() - 2
	d = c.ChangesSince(seq, inst)
	if d.Full || len(d.Export.Datasets) != 2 {
		t.Fatalf("tail delta: full=%v n=%d", d.Full, len(d.Export.Datasets))
	}
}

// TestJournalWindowFloor: trimming past a caller's cursor degrades that
// caller to a full export — never a silently incomplete delta — while a
// cursor at the floor JournalState reports gets a true delta of exactly
// the retained tail, and a current cursor an empty one.
func TestJournalWindowFloor(t *testing.T) {
	c := New(nil)
	c.SetJournalWindow(8)
	if err := c.AddDataset(jds("base")); err != nil {
		t.Fatal(err)
	}
	since, inst := c.Seq(), c.Instance()
	for i := 0; i < 200; i++ {
		if err := c.AddDataset(jds(fmt.Sprintf("flood%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	st := c.JournalState()
	if st.Floor <= since || st.Floor >= st.Seq {
		t.Fatalf("floor %d not in (%d, %d): window not enforced", st.Floor, since, st.Seq)
	}
	if st.Entries < 8 || st.Entries >= 16 || int(st.Seq-st.Floor) != st.Entries {
		t.Fatalf("journal state %+v: want 8..15 entries, all above the floor", st)
	}
	if d := c.ChangesSince(since, inst); !d.Full {
		t.Fatal("cursor behind the floor must get a full export")
	}
	if d := c.ChangesSince(st.Floor-1, inst); !d.Full {
		t.Fatal("cursor just below the floor must get a full export")
	}
	d := c.ChangesSince(st.Floor, inst)
	if d.Full || len(d.Export.Datasets) != st.Entries {
		t.Fatalf("cursor at the floor: full=%v, %d datasets; want a delta of %d", d.Full, len(d.Export.Datasets), st.Entries)
	}
	if got := c.ChangesSince(c.Seq(), inst); !got.Empty() {
		t.Fatal("current cursor must get an empty delta")
	}
}

// TestDeltaFollowerConvergence replays a mutation history through
// deltas and checks the follower converges to the leader's export.
func TestDeltaFollowerConvergence(t *testing.T) {
	c := New(nil)
	follower := New(nil)
	var seq uint64
	inst := c.Instance()
	sync := func() {
		t.Helper()
		d := c.ChangesSince(seq, inst)
		follower = applyDelta(t, follower, d)
		seq = d.Seq
	}

	tr := schema.Transformation{Name: "t", Kind: schema.Simple, Exec: "/t",
		Args: []schema.FormalArg{{Name: "o", Direction: schema.Out}, {Name: "i", Direction: schema.In}}}
	if err := c.AddTransformation(tr); err != nil {
		t.Fatal(err)
	}
	sync()
	for i := 0; i < 5; i++ {
		if _, err := c.AddDerivation(schema.Derivation{TR: "t", Params: map[string]schema.Actual{
			"o": schema.DatasetActual("output", fmt.Sprintf("out%d", i)),
			"i": schema.DatasetActual("input", fmt.Sprintf("in%d", i)),
		}}); err != nil {
			t.Fatal(err)
		}
		if err := c.AddReplica(schema.Replica{ID: fmt.Sprintf("r%d", i), Dataset: fmt.Sprintf("in%d", i), Site: "s", PFN: "u"}); err != nil {
			t.Fatal(err)
		}
		sync()
	}
	if _, err := c.BumpEpoch("in0", false); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveReplica("r1"); err != nil {
		t.Fatal(err)
	}
	sync()

	want, err := schema.CanonicalBytes(c.Export())
	if err != nil {
		t.Fatal(err)
	}
	got, err := schema.CanonicalBytes(follower.Export())
	if err != nil {
		t.Fatal(err)
	}
	if string(want) != string(got) {
		t.Fatalf("follower diverged:\nleader:   %s\nfollower: %s", want, got)
	}
}

func TestReopenedCatalogGetsFreshInstance(t *testing.T) {
	dir, err := os.MkdirTemp("", "journal-reopen")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	c1, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.AddDataset(jds("a")); err != nil {
		t.Fatal(err)
	}
	inst1, seq1 := c1.Instance(), c1.Seq()
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Instance() == inst1 {
		t.Error("reopened catalog reused instance token")
	}
	// A client carrying the old instance's sequence must be forced to
	// resync in full, whatever the new sequence happens to be.
	if d := c2.ChangesSince(seq1, inst1); !d.Full {
		t.Errorf("stale instance should get full export: %+v", d)
	}
}

// TestApplyDeltaMatchesImport is ApplyDelta's contract: a random history
// on a source catalog, shipped as ChangesSince deltas and folded into a
// target one sync at a time, leaves the target byte-identical to one
// ImportTolerant of the source's export at that point — after every
// sync, with nothing skipped. (NewSharded ignores the shards=N count;
// the axis goes with it.)
func TestApplyDeltaMatchesImport(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for seed := int64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				src := NewSharded(nil, shards)
				target := NewSharded(nil, shards)
				var datasets, derivations, replicas []string
				pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
				must := func(err error) {
					t.Helper()
					if err != nil {
						t.Fatal(err)
					}
				}
				addReplica := func(id string) {
					must(src.AddReplica(schema.Replica{ID: id, Dataset: pick(datasets), Site: "s", PFN: "gsiftp://" + id}))
				}
				step := func(n int) {
					switch k := rng.Intn(12); {
					case k == 0:
						must(src.DefineType(dtype.Content, fmt.Sprintf("type%d", n), ""))
						must(src.AddDataset(schema.Dataset{Name: fmt.Sprintf("typed%d", n),
							Type: dtype.Type{Content: fmt.Sprintf("type%d", n)}}))
						datasets = append(datasets, fmt.Sprintf("typed%d", n))
					case k == 1 || len(datasets) == 0:
						ds := schema.Dataset{Name: fmt.Sprintf("ds%d", n), Attrs: schema.Attributes{"n": fmt.Sprint(n)}}
						if len(derivations) > 0 && rng.Intn(2) == 0 {
							// Linkage the source asserts by hand, to a derivation
							// that does not output the dataset: an import drops it.
							ds.CreatedBy = pick(derivations)
						}
						must(src.AddDataset(ds))
						datasets = append(datasets, ds.Name)
					case k == 2:
						ds, err := src.Dataset(pick(datasets))
						must(err)
						ds.Attrs = schema.Attributes{"rev": fmt.Sprint(n)}
						must(src.UpdateDataset(ds))
					case k == 3:
						_, err := src.BumpEpoch(pick(datasets), rng.Intn(2) == 0)
						must(err)
					case k <= 5:
						tr := fmt.Sprintf("tr%d", n)
						must(src.AddTransformation(twoArg(tr)))
						// Inputs are sometimes existing datasets, outputs always new.
						in, out := fmt.Sprintf("in%d", n), fmt.Sprintf("out%d", n)
						if rng.Intn(2) == 0 {
							in = pick(datasets)
						}
						dv, err := src.AddDerivation(chainDV(tr, in, out))
						must(err)
						derivations = append(derivations, dv.ID)
						datasets = append(datasets, out)
					case k == 6 && len(derivations) > 0:
						start := time.Unix(int64(n), 0).UTC()
						must(src.AddInvocation(schema.Invocation{ID: fmt.Sprintf("iv%d", n),
							Derivation: pick(derivations), Start: start, End: start.Add(time.Second)}))
					case k == 7:
						id := fmt.Sprintf("r%d", n)
						addReplica(id)
						replicas = append(replicas, id)
					case k == 8 && len(replicas) > 0:
						i := rng.Intn(len(replicas))
						must(src.RemoveReplica(replicas[i]))
						replicas = append(replicas[:i], replicas[i+1:]...)
					case k == 9: // gone again before the target ever saw it
						addReplica("flash")
						must(src.RemoveReplica("flash"))
					case k == 10 && len(replicas) > 0: // same ID, new home
						id := pick(replicas)
						must(src.RemoveReplica(id))
						addReplica(id)
					case k == 11:
						must(src.AssertCompatibility(schema.CompatibilityAssertion{Name: "tr", V1: "1", V2: fmt.Sprint(n), Mode: schema.Equivalent}))
					}
				}

				var seq uint64
				for round, n := 0, 0; round < 30; round++ {
					for i := rng.Intn(8); i > 0; i-- {
						step(n)
						n++
					}
					d := src.ChangesSince(seq, src.Instance())
					if d.Full && seq != 0 {
						t.Fatalf("round %d: full delta past first contact", round)
					}
					if skipped := target.ApplyDelta(d); skipped > 0 {
						t.Fatalf("round %d: %d records skipped", round, skipped)
					}
					seq = d.Seq

					oracle := NewSharded(nil, shards)
					if skipped := oracle.ImportTolerant(src.Export()); skipped > 0 {
						t.Fatalf("round %d: oracle skipped %d", round, skipped)
					}
					want, err := schema.CanonicalBytes(oracle.Export())
					must(err)
					got, err := schema.CanonicalBytes(target.Export())
					must(err)
					if string(got) != string(want) {
						t.Fatalf("round %d: folded deltas diverged from import\nfolded: %s\nimport: %s", round, got, want)
					}
					must(target.CheckIndexes())
				}
			})
		}
	}
}
