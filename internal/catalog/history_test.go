package catalog

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"chimera/internal/dtype"
	"chimera/internal/schema"
)

// Randomized mutation histories, and the tests that replay them
// against durable catalogs: a snapshot in mid-history and a concurrent
// ingest storm.

// mutation is one step of a replayable history.
type mutation func(c *Catalog) error

// randomHistory generates a deterministic mutation history under a
// name prefix. Histories with distinct prefixes touch disjoint objects
// (no shared datasets, TRs, or replica IDs), so they commute — the
// property the concurrent equivalence test leans on. withCompat guards
// the one op whose export order is append order (compat assertions);
// concurrent histories skip it.
func randomHistory(rng *rand.Rand, prefix string, steps int, withCompat bool) []mutation {
	var hist []mutation
	var datasets []string // names added so far (attempted, so valid targets)
	var dvs []string      // derivation IDs (precomputed from signatures)
	var trs []string      // transformation refs
	var replicas []string
	pick := func(s []string) string { return s[rng.Intn(len(s))] }
	nds, ntr, niv, nrep := 0, 0, 0, 0

	// Seed every history with one dataset and one transformation so
	// dependent ops always have a target.
	seedTR := twoArg(prefix + "t0")
	hist = append(hist,
		func(c *Catalog) error { return c.AddDataset(schema.Dataset{Name: prefix + "ds0"}) },
		func(c *Catalog) error { return c.AddTransformation(seedTR) },
	)
	datasets = append(datasets, prefix+"ds0")
	trs = append(trs, seedTR.Ref())
	nds, ntr = 1, 1

	for i := 0; i < steps; i++ {
		switch op := rng.Intn(10); op {
		case 0, 1: // dataset
			name := fmt.Sprintf("%sds%d", prefix, nds)
			nds++
			ds := schema.Dataset{Name: name, Size: int64(rng.Intn(1000))}
			if rng.Intn(4) == 0 {
				ds.Attrs = schema.Attributes{"run": fmt.Sprint(rng.Intn(8))}
			}
			datasets = append(datasets, name)
			hist = append(hist, func(c *Catalog) error { return c.AddDataset(ds) })
		case 2: // transformation (sometimes a second version of an old name)
			var tr schema.Transformation
			if len(trs) > 2 && rng.Intn(3) == 0 {
				tr = twoArg(fmt.Sprintf("%st%d", prefix, rng.Intn(ntr)))
				tr.Version = fmt.Sprint(2 + rng.Intn(3))
			} else {
				tr = twoArg(fmt.Sprintf("%st%d", prefix, ntr))
				ntr++
			}
			trs = append(trs, tr.Ref())
			hist = append(hist, func(c *Catalog) error { return c.AddTransformation(tr) })
		case 3, 4: // derivation: random existing TR, random input, fresh output
			out := fmt.Sprintf("%sout%d", prefix, nds)
			nds++
			dv := chainDV(pick(trs), pick(datasets), out).Canonicalize()
			datasets = append(datasets, out)
			dvs = append(dvs, dv.ID)
			hist = append(hist, func(c *Catalog) error { _, err := c.AddDerivation(dv); return err })
		case 5: // invocation of a random derivation (may not exist: its Add may have failed)
			if len(dvs) == 0 {
				continue
			}
			iv := schema.Invocation{
				ID: fmt.Sprintf("%siv%d", prefix, niv), Derivation: pick(dvs),
				Site: "site-a", Host: "h1",
				Start: time.Unix(int64(niv), 0).UTC(), End: time.Unix(int64(niv)+30, 0).UTC(),
			}
			niv++
			hist = append(hist, func(c *Catalog) error { return c.AddInvocation(iv) })
		case 6: // replica
			r := schema.Replica{
				ID: fmt.Sprintf("%sr%d", prefix, nrep), Dataset: pick(datasets),
				Site: "site-a", PFN: "/store/" + fmt.Sprint(nrep),
			}
			nrep++
			replicas = append(replicas, r.ID)
			hist = append(hist, func(c *Catalog) error { return c.AddReplica(r) })
		case 7: // epoch bump, sometimes re-stamping replicas
			name := pick(datasets)
			restamp := rng.Intn(2) == 0
			hist = append(hist, func(c *Catalog) error {
				_, err := c.BumpEpoch(name, restamp)
				return err
			})
		case 8: // remove a replica (may already be gone or never added)
			if len(replicas) == 0 {
				continue
			}
			id := pick(replicas)
			hist = append(hist, func(c *Catalog) error { return c.RemoveReplica(id) })
		case 9:
			if withCompat && rng.Intn(3) == 0 {
				a := schema.CompatibilityAssertion{
					Name: fmt.Sprintf("%st%d", prefix, rng.Intn(ntr)),
					V1:   "1", V2: fmt.Sprint(2 + rng.Intn(3)), Mode: schema.Equivalent,
				}
				hist = append(hist, func(c *Catalog) error { return c.AssertCompatibility(a) })
			} else { // update attrs on an existing dataset
				name := pick(datasets)
				ds := schema.Dataset{Name: name, Attrs: schema.Attributes{"pass": fmt.Sprint(rng.Intn(5))}}
				hist = append(hist, func(c *Catalog) error { return c.UpdateDataset(ds) })
			}
		}
	}
	return hist
}

// TestSnapshotReplayRandomized checks the snapshot + post-snapshot-WAL
// composition on a randomized history.
func TestSnapshotReplayRandomized(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, dtype.StandardRegistry(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	hist := randomHistory(rng, "sn-", 200, true)
	for _, m := range hist[:len(hist)/2] {
		m(c)
	}
	if err := c.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for _, m := range hist[len(hist)/2:] {
		m(c)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(dir, dtype.StandardRegistry(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	requireSameState(t, c, c2)
}

// TestIngestStorm is the CI smoke: 16 writers hammer a durable catalog
// — one lock, one group-committed log — with disjoint production-mix
// histories while readers chase deltas and walk lineage; then indexes
// must verify, no durability error may be recorded, and a reopen must
// reproduce the state from the WAL.
func TestIngestStorm(t *testing.T) {
	const writers = 16
	dir := t.TempDir()
	c, err := Open(dir, dtype.StandardRegistry(), Options{})
	if err != nil {
		t.Fatal(err)
	}

	steps := 200
	if testing.Short() {
		steps = 60
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) * 131))
			for _, m := range randomHistory(rng, fmt.Sprintf("s%d-", w), steps, false) {
				m(c)
			}
		}(w)
	}
	// Readers: a delta chaser and a scanner, racing the writers.
	var rg sync.WaitGroup
	rg.Add(2)
	go func() {
		defer rg.Done()
		since, inst := uint64(0), c.Instance()
		for {
			select {
			case <-stop:
				return
			default:
			}
			d := c.ChangesSince(since, inst)
			since, inst = d.Seq, d.Instance
			c.JournalState()
		}
	}()
	go func() {
		defer rg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			v := c.View()
			n := 0
			v.RangeDatasets(func(ds schema.Dataset) bool {
				if v.Materialized(ds.Name) {
					n++
				}
				return n < 50
			})
			v.Close()
			c.Stats()
		}
	}()
	wg.Wait()
	close(stop)
	rg.Wait()

	if err := c.CheckIndexes(); err != nil {
		t.Fatal(err)
	}
	if err := c.DurabilityErr(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(dir, dtype.StandardRegistry(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	requireSameState(t, c, c2)
}
