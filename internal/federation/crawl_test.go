package federation

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"chimera/internal/catalog"
	"chimera/internal/dtype"
	"chimera/internal/query"
	"chimera/internal/schema"
	"chimera/internal/vds"
)

// snapshot captures the externally observable crawl result.
type snapshot struct {
	export string
	origin map[string]string
	stale  map[string]string
}

func snap(t *testing.T, ix *Index) snapshot {
	t.Helper()
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	data, err := schema.CanonicalBytes(ix.shadow.Export())
	if err != nil {
		t.Fatal(err)
	}
	s := snapshot{export: string(data), origin: make(map[string]string), stale: make(map[string]string)}
	for k, v := range ix.origin {
		s.origin[k] = v
	}
	for k, v := range ix.stale {
		s.stale[k] = v.Error()
	}
	return s
}

// fullCrawl is the oracle the incremental crawl is held to: what ix
// must hold after a pass, computed the slow, obviously-right way — every
// member's full export fetched in authority order, admitted through the
// filter and imported into an empty catalog, the first-crawled copy of
// an overlapping definition winning.
func fullCrawl(t *testing.T, ix *Index) snapshot {
	t.Helper()
	var filter query.Expr
	if ix.Filter != "" {
		var err error
		if filter, err = query.Parse(ix.Filter); err != nil {
			t.Fatal(err)
		}
	}
	shadow := catalog.New(nil)
	s := snapshot{origin: make(map[string]string), stale: make(map[string]string)}
	for _, a := range ix.Members() {
		ix.mu.RLock()
		client := ix.members[a]
		ix.mu.RUnlock()
		d, _, err := client.ExportSince(context.Background(), 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		admitted, err := admit(d.Export, filter)
		if err != nil {
			t.Fatal(err)
		}
		if skipped := shadow.ImportTolerant(admitted); skipped > 0 {
			s.stale[a] = fmt.Sprintf("federation: %d objects of %s overlapped existing index entries", skipped, a)
		}
		claimOrigins(s.origin, a, &admitted)
	}
	data, err := schema.CanonicalBytes(shadow.Export())
	if err != nil {
		t.Fatal(err)
	}
	s.export = string(data)
	return s
}

func compareSnapshots(t *testing.T, round int, delta, oracle snapshot) {
	t.Helper()
	if delta.export != oracle.export {
		t.Fatalf("round %d: shadow diverged\ndelta:  %.2000s\noracle: %.2000s", round, delta.export, oracle.export)
	}
	if !reflect.DeepEqual(delta.origin, oracle.origin) {
		t.Fatalf("round %d: origin diverged\ndelta:  %v\noracle: %v", round, delta.origin, oracle.origin)
	}
	if !reflect.DeepEqual(delta.stale, oracle.stale) {
		t.Fatalf("round %d: stale diverged\ndelta:  %v\noracle: %v", round, delta.stale, oracle.stale)
	}
}

// mutator applies random mutation histories to a member catalog.
type mutator struct {
	rng      *rand.Rand
	cat      *catalog.Catalog
	prefix   string
	datasets []string // this member's datasets: primary, derived and shared
	replicas []string
	trs      int
}

func (m *mutator) step(t *testing.T) {
	t.Helper()
	switch k := m.rng.Intn(24); {
	case k < 4: // new dataset
		name := fmt.Sprintf("%s-ds%d", m.prefix, len(m.datasets))
		if err := m.cat.AddDataset(schema.Dataset{Name: name,
			Attrs: schema.Attributes{"quality": []string{"approved", "draft"}[m.rng.Intn(2)]}}); err != nil {
			t.Fatal(err)
		}
		m.datasets = append(m.datasets, name)
	case k < 8: // epoch bump on an existing dataset, replicas stale or re-stamped
		if len(m.datasets) == 0 {
			return
		}
		if _, err := m.cat.BumpEpoch(m.datasets[m.rng.Intn(len(m.datasets))], m.rng.Intn(2) == 0); err != nil {
			t.Fatal(err)
		}
	case k < 11: // transformation + derivation chain; the output joins the
		// update pool, so bumps and updates also hit derived datasets
		tr := fmt.Sprintf("%s-tr%d", m.prefix, m.trs)
		m.trs++
		if err := m.cat.AddTransformation(twoArg(tr)); err != nil {
			t.Fatal(err)
		}
		out := fmt.Sprintf("%s-out%d", m.prefix, m.trs)
		if _, err := m.cat.AddDerivation(chainDV(tr, "input-"+m.prefix, out)); err != nil {
			t.Fatal(err)
		}
		m.datasets = append(m.datasets, out)
	case k < 14: // new replica
		m.addReplica(t)
	case k < 16: // drop a replica
		if len(m.replicas) == 0 {
			return
		}
		i := m.rng.Intn(len(m.replicas))
		_ = m.cat.RemoveReplica(m.replicas[i])
		m.replicas = append(m.replicas[:i], m.replicas[i+1:]...)
	case k < 18: // a replica that comes and goes between two passes: the
		// index only ever sees its tombstone
		if id := m.addReplica(t); id != "" {
			if err := m.cat.RemoveReplica(id); err != nil {
				t.Fatal(err)
			}
			m.replicas = m.replicas[:len(m.replicas)-1]
		}
	case k < 22: // update attributes (upsert path)
		if len(m.datasets) == 0 {
			return
		}
		ds, err := m.cat.Dataset(m.datasets[m.rng.Intn(len(m.datasets))])
		if err != nil {
			t.Fatal(err)
		}
		ds.Attrs = schema.Attributes{"quality": "approved", "rev": fmt.Sprint(m.rng.Intn(100))}
		if err := m.cat.UpdateDataset(ds); err != nil {
			t.Fatal(err)
		}
	case k < 23: // a dataset name other members register too, each with its
		// own attributes: the first authority in sorted order owns it
		name := fmt.Sprintf("shared-ds%d", m.rng.Intn(3))
		if err := m.cat.AddDataset(schema.Dataset{Name: name,
			Attrs: schema.Attributes{"quality": "approved", "home": m.prefix}}); err == nil {
			m.datasets = append(m.datasets, name)
		}
	default: // a transformation other members define differently: every
		// copy but the owner's counts as overlap
		tr := twoArg(fmt.Sprintf("shared-tr%d", m.rng.Intn(3)))
		tr.Exec = "/opt/" + m.prefix + "/" + tr.Name
		_ = m.cat.AddTransformation(tr)
	}
}

// addReplica registers a replica of a random dataset and returns its ID
// ("" when the member has no dataset yet).
func (m *mutator) addReplica(t *testing.T) string {
	t.Helper()
	if len(m.datasets) == 0 {
		return ""
	}
	id := fmt.Sprintf("%s-r%d-%d", m.prefix, len(m.replicas), m.rng.Intn(1<<30))
	ds := m.datasets[m.rng.Intn(len(m.datasets))]
	if err := m.cat.AddReplica(schema.Replica{ID: id, Dataset: ds, Site: m.prefix, PFN: "gsiftp://" + id}); err != nil {
		t.Fatal(err)
	}
	m.replicas = append(m.replicas, id)
	return id
}

// TestDeltaCrawlEquivalence drives the incremental parallel crawl and
// the sequential full-export oracle over identical randomized mutation
// histories and requires bit-identical shadow state, origins and stale
// maps after every round — whether the pass folded its deltas into the
// live shadow or rebuilt it (journal-window overflow, names shared
// between members, a filter). The unfiltered cases must fold on most
// changed rounds: an index that always rebuilds would pass the
// comparison and prove nothing.
func TestDeltaCrawlEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name   string
		filter string
		seed   int64
	}{
		{"unfiltered", "", 1},
		{"unfiltered-alt-seed", "", 7},
		{"filtered", `attr.quality = approved`, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			const nMembers = 4
			muts := make([]*mutator, nMembers)
			delta := NewIndex("delta", "test")
			delta.Filter = tc.filter
			for i := 0; i < nMembers; i++ {
				name := fmt.Sprintf("m%d", i)
				cat, client, _ := site(t, name)
				muts[i] = &mutator{rng: rng, cat: cat, prefix: name}
				delta.AddMember(name, client)
			}
			// A tight journal on one member forces overflow -> full
			// fallback whenever it takes a big batch between crawls.
			muts[0].cat.SetJournalWindow(4)

			passes := make(map[string]int)
			for round := 0; round < 40; round++ {
				steps := rng.Intn(10) // sometimes 0: the unchanged fast path
				for s := 0; s < steps; s++ {
					muts[rng.Intn(nMembers)].step(t)
				}
				if err := delta.Crawl(); err != nil {
					t.Fatal(err)
				}
				passes[delta.LastPass()]++
				compareSnapshots(t, round, snap(t, delta), fullCrawl(t, delta))
			}
			t.Logf("passes: %v", passes)
			switch {
			case tc.filter != "" && passes[passFold] > 0:
				t.Errorf("filtered index folded %d passes; it must rebuild", passes[passFold])
			case tc.filter == "" && passes[passFold] <= passes[passRebuild]:
				t.Errorf("folds should outnumber rebuilds, got %v", passes)
			}
		})
	}
}

// TestDeltaCrawlKeepsProducerLink: after the member updates a derived
// dataset's record, the folded delta leaves the index with the same
// createdBy the member reports — the derivation's.
func TestDeltaCrawlKeepsProducerLink(t *testing.T) {
	cat, client, _ := site(t, "g")
	if err := cat.AddTransformation(twoArg("t")); err != nil {
		t.Fatal(err)
	}
	dv, err := cat.AddDerivation(chainDV("t", "in", "out"))
	if err != nil {
		t.Fatal(err)
	}
	ix := NewIndex("x", "group")
	ix.AddMember("g", client)
	if err := ix.Crawl(); err != nil {
		t.Fatal(err)
	}
	if err := cat.UpdateDataset(schema.Dataset{Name: "out", Attrs: schema.Attributes{"pass": "2"}}); err != nil {
		t.Fatal(err)
	}
	if err := ix.Crawl(); err != nil {
		t.Fatal(err)
	}
	if got := ix.LastPass(); got != passFold {
		t.Fatalf("pass after the update: %q, want %q", got, passFold)
	}
	member, err := cat.Dataset("out")
	if err != nil {
		t.Fatal(err)
	}
	ix.mu.RLock()
	indexed, err := ix.shadow.Dataset("out")
	ix.mu.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	if member.CreatedBy != dv.ID || indexed.CreatedBy != member.CreatedBy {
		t.Errorf("createdBy: member %q, index %q, want both %q", member.CreatedBy, indexed.CreatedBy, dv.ID)
	}
	if indexed.Attrs["pass"] != "2" {
		t.Errorf("index missed the update: %+v", indexed)
	}
}

// TestDeltaCrawlUnchangedSkipsRebuild checks the fast paths: when no
// member changed, the pass keeps the existing shadow untouched (pointer
// identity: zero re-import) while still counting as a crawl, and when
// one did, its delta is folded into that same shadow.
func TestDeltaCrawlUnchangedSkipsRebuild(t *testing.T) {
	cat, client, _ := site(t, "g")
	if err := cat.AddDataset(schema.Dataset{Name: "d"}); err != nil {
		t.Fatal(err)
	}
	counted := make(map[string]uint64)
	for _, kind := range []string{passUnchanged, passFold, passRebuild} {
		counted[kind] = metricPasses.With(kind).Value()
	}
	ix := NewIndex("x", "group")
	ix.AddMember("g", client)
	if err := ix.Crawl(); err != nil {
		t.Fatal(err)
	}
	shadow := func() *catalog.Catalog { ix.mu.RLock(); defer ix.mu.RUnlock(); return ix.shadow }
	before := shadow()
	if err := ix.Crawl(); err != nil {
		t.Fatal(err)
	}
	if before != shadow() {
		t.Error("unchanged pass rebuilt the shadow")
	}
	if got := ix.LastPass(); got != passUnchanged {
		t.Errorf("unchanged pass reported %q", got)
	}
	if ix.Crawls() != 2 {
		t.Errorf("crawls: %d", ix.Crawls())
	}
	if _, ok := ix.Lookup("dataset", "d"); !ok {
		t.Error("lookup broken after unchanged pass")
	}
	// A mutation is folded into the same shadow: no re-import either.
	if err := cat.AddDataset(schema.Dataset{Name: "d2"}); err != nil {
		t.Fatal(err)
	}
	if err := ix.Crawl(); err != nil {
		t.Fatal(err)
	}
	if before != shadow() {
		t.Error("changed pass rebuilt the shadow instead of folding the delta")
	}
	if got := ix.LastPass(); got != passFold {
		t.Errorf("changed pass reported %q, want %q", got, passFold)
	}
	if _, ok := ix.Lookup("dataset", "d2"); !ok {
		t.Error("recrawl missed new data")
	}
	// One pass of each kind: first contact is the index's only rebuild.
	for kind, before := range counted {
		if got := metricPasses.With(kind).Value() - before; got != 1 {
			t.Errorf("vdc_federation_passes_total{kind=%q} moved by %d, want 1", kind, got)
		}
	}
}

// TestFoldDropsStaleAdmission: a delta landing in a shard drops the
// shard's memoized admission, a sorted copy of everything the member
// held at the last rebuild. An unfiltered index that only folds after
// its first crawl would otherwise keep that copy for good.
func TestFoldDropsStaleAdmission(t *testing.T) {
	cat, client, _ := site(t, "g")
	if err := cat.AddDataset(schema.Dataset{Name: "d"}); err != nil {
		t.Fatal(err)
	}
	ix := NewIndex("x", "group")
	ix.AddMember("g", client)
	memos := func() (held int) {
		ix.crawlMu.Lock()
		defer ix.crawlMu.Unlock()
		for _, sh := range ix.shards {
			if sh.admittedValid || !reflect.ValueOf(sh.admitted).IsZero() {
				held++
			}
		}
		return held
	}
	if err := ix.Crawl(); err != nil {
		t.Fatal(err)
	}
	if got := ix.LastPass(); got != passRebuild {
		t.Fatalf("first pass was a %s, want %s", got, passRebuild)
	}
	if memos() != 1 {
		t.Fatal("the rebuild left no admission memo: the check below shows nothing")
	}
	if err := cat.AddDataset(schema.Dataset{Name: "d2"}); err != nil {
		t.Fatal(err)
	}
	if err := ix.Crawl(); err != nil {
		t.Fatal(err)
	}
	if got := ix.LastPass(); got != passFold {
		t.Fatalf("second pass was a %s, want %s", got, passFold)
	}
	if n := memos(); n != 0 {
		t.Errorf("%d shard(s) still hold an admitted export after a fold", n)
	}
	if _, ok := ix.Lookup("dataset", "d2"); !ok {
		t.Error("the fold missed d2")
	}
}

// delayedSite serves a catalog with an injected per-request delay.
func delayedSite(t *testing.T, name string, delay time.Duration) (*catalog.Catalog, *vds.Client) {
	t.Helper()
	cat := catalog.New(nil)
	srv := vds.NewServer(name, cat)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(delay):
		case <-r.Context().Done():
			return
		}
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(hs.Close)
	return cat, vds.NewClient(hs.URL)
}

// TestCrawlHangingMember: a member that never answers burns its own
// timeout, not the whole pass — live members still get indexed.
func TestCrawlHangingMember(t *testing.T) {
	catA, clientA, _ := site(t, "alive")
	if err := catA.AddDataset(schema.Dataset{Name: "d"}); err != nil {
		t.Fatal(err)
	}
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done() // hang until the client gives up
	}))
	t.Cleanup(hung.Close)

	ix := NewIndex("x", "group")
	ix.MemberTimeout = 100 * time.Millisecond
	ix.AddMember("alive", clientA)
	ix.AddMember("hung", vds.NewClient(hung.URL))

	start := time.Now()
	if err := ix.Crawl(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("hanging member stalled the pass: %v", elapsed)
	}
	if _, ok := ix.Lookup("dataset", "d"); !ok {
		t.Error("live member not indexed")
	}
	if ix.MemberError("hung") == nil {
		t.Error("hung member error not recorded")
	}
}

// TestCrawlSlowMemberWallClock: with parallel fan-out, pass latency
// tracks the slowest member, not the sum over members.
func TestCrawlSlowMemberWallClock(t *testing.T) {
	const slow = 250 * time.Millisecond
	ix := NewIndex("x", "group")
	for i := 0; i < 4; i++ {
		d := slow
		cat, client := delayedSite(t, fmt.Sprintf("m%d", i), d)
		if err := cat.AddDataset(schema.Dataset{Name: fmt.Sprintf("d%d", i)}); err != nil {
			t.Fatal(err)
		}
		ix.AddMember(fmt.Sprintf("m%d", i), client)
	}
	start := time.Now()
	if err := ix.Crawl(); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if sequential := 4 * slow; elapsed >= sequential-slow/2 {
		t.Errorf("pass took %v; parallel fan-out should track the slowest member (%v), not the sum (%v)",
			elapsed, slow, sequential)
	}
	for i := 0; i < 4; i++ {
		if _, ok := ix.Lookup("dataset", fmt.Sprintf("d%d", i)); !ok {
			t.Errorf("member m%d not indexed", i)
		}
	}
}

// TestCrawlStorm is the -race smoke: concurrent crawls against members
// that mutate underneath them, while readers query the index the passes
// are folding into. Whatever a reader sees mid-pass must be attributed:
// every entry carries its authority and reference, and every dataset a
// search returns resolves through Lookup to the same home.
func TestCrawlStorm(t *testing.T) {
	const nMembers = 3
	ix := NewIndex("storm", "group")
	cats := make([]*catalog.Catalog, nMembers)
	for i := 0; i < nMembers; i++ {
		name := fmt.Sprintf("m%d", i)
		cat, client, _ := site(t, name)
		cats[i] = cat
		if err := cat.AddDataset(schema.Dataset{Name: name + "-seed"}); err != nil {
			t.Fatal(err)
		}
		ix.AddMember(name, client)
	}

	stop := make(chan struct{})
	var writers, crawlers, readers sync.WaitGroup
	// Writers: keep the member catalogs moving until told to stop —
	// datasets, and derivation chains whose datasets must never be
	// visible without their attribution. Paced so they contend with the
	// crawlers without starving them.
	for i := 0; i < nMembers; i++ {
		writers.Add(1)
		go func(i int) {
			defer writers.Done()
			for n := 0; n < 2000; n++ {
				select {
				case <-stop:
					return
				default:
				}
				_ = cats[i].AddDataset(schema.Dataset{Name: fmt.Sprintf("m%d-ds%d", i, n)})
				if n%10 == 0 {
					tr := fmt.Sprintf("m%d-tr%d", i, n)
					_ = cats[i].AddTransformation(twoArg(tr))
					_, _ = cats[i].AddDerivation(chainDV(tr, fmt.Sprintf("m%d-ds%d", i, n), fmt.Sprintf("m%d-out%d", i, n)))
				}
				if n%50 == 0 {
					time.Sleep(time.Millisecond)
				}
			}
		}(i)
	}
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				entries, err := ix.SearchDatasets("*")
				if err != nil {
					t.Error(err)
					return
				}
				for _, e := range entries {
					home, ok := ix.Lookup("dataset", e.Name)
					if e.Authority == "" || e.Ref == "" || !ok || home != e {
						t.Errorf("search returned %+v, lookup %+v (found %v)", e, home, ok)
						return
					}
				}
				if st := ix.Stats(); st.Datasets < len(entries) {
					t.Errorf("stats report %d datasets after a search returned %d", st.Datasets, len(entries))
					return
				}
			}
		}()
	}
	for g := 0; g < 4; g++ {
		crawlers.Add(1)
		go func() {
			defer crawlers.Done()
			for n := 0; n < 10; n++ {
				if err := ix.Crawl(); err != nil {
					t.Error(err)
					return
				}
				if _, err := ix.SearchDatasets(`name ~ "*-seed"`); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	crawlers.Wait()
	close(stop)
	writers.Wait()
	readers.Wait()

	// The index must still answer consistently after the storm, and the
	// storm must have been absorbed by folds, not rebuilds.
	if err := ix.Crawl(); err != nil {
		t.Fatal(err)
	}
	if res, err := ix.SearchDatasets(`name ~ "*-seed"`); err != nil || len(res) != nMembers {
		t.Fatalf("post-storm search: %d results, err %v", len(res), err)
	}
	if got := ix.LastPass(); got == passRebuild {
		t.Errorf("post-storm pass was a %s", got)
	}
	want := 0
	for _, cat := range cats {
		want += cat.Stats().Datasets
	}
	if got := ix.Stats().Datasets; got != want {
		t.Errorf("index holds %d datasets, members %d", got, want)
	}
}

// TestFoldDegradesToRebuild pins the fold's boundary: a delta whose
// identities are the member's own folds, and each kind of delta the
// fold cannot prove equal to a rebuild takes the rebuild — and either
// way the index equals the full-crawl oracle.
func TestFoldDegradesToRebuild(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(t *testing.T, a, b *catalog.Catalog)
		want   string
	}{
		{"own new objects", func(t *testing.T, a, b *catalog.Catalog) {
			if err := b.AddTransformation(twoArg("b-tr")); err != nil {
				t.Fatal(err)
			}
			if _, err := b.AddDerivation(chainDV("b-tr", "b-seed", "b-out")); err != nil {
				t.Fatal(err)
			}
			if err := b.AddReplica(schema.Replica{ID: "b-r", Dataset: "b-out", Site: "s", PFN: "u"}); err != nil {
				t.Fatal(err)
			}
		}, passFold},
		{"name another member holds", func(t *testing.T, a, b *catalog.Catalog) {
			if err := b.AddDataset(schema.Dataset{Name: "a-seed", Attrs: schema.Attributes{"home": "b"}}); err != nil {
				t.Fatal(err)
			}
		}, passRebuild},
		{"owner updates a shared name", func(t *testing.T, a, b *catalog.Catalog) {
			if _, err := a.BumpEpoch("both", false); err != nil {
				t.Fatal(err)
			}
		}, passRebuild},
		{"journal overflow", func(t *testing.T, a, b *catalog.Catalog) {
			b.SetJournalWindow(2)
			for i := 0; i < 8; i++ {
				if err := b.AddDataset(schema.Dataset{Name: fmt.Sprintf("b-burst%d", i)}); err != nil {
					t.Fatal(err)
				}
			}
		}, passRebuild},
		{"type registry change", func(t *testing.T, a, b *catalog.Catalog) {
			if err := b.DefineType(dtype.Content, "b-type", ""); err != nil {
				t.Fatal(err)
			}
		}, passRebuild},
		{"dataset type its member never registered", func(t *testing.T, a, b *catalog.Catalog) {
			if err := b.UpdateDataset(schema.Dataset{Name: "b-seed", Type: dtype.Type{Content: "ghost"}}); err != nil {
				t.Fatal(err)
			}
		}, passRebuild},
		{"versionless transformation reference", func(t *testing.T, a, b *catalog.Catalog) {
			tr := twoArg("b-versioned")
			tr.Version = "1.0"
			if err := b.AddTransformation(tr); err != nil {
				t.Fatal(err)
			}
			if _, err := b.AddDerivation(chainDV("b-versioned", "b-seed", "b-out")); err != nil {
				t.Fatal(err)
			}
		}, passRebuild},
	} {
		t.Run(tc.name, func(t *testing.T) {
			delta := NewIndex("delta", "test")
			cats := make(map[string]*catalog.Catalog)
			for _, name := range []string{"a", "b"} {
				cat, client, _ := site(t, name)
				cats[name] = cat
				for _, ds := range []string{name + "-seed", "both"} {
					if err := cat.AddDataset(schema.Dataset{Name: ds}); err != nil {
						t.Fatal(err)
					}
				}
				delta.AddMember(name, client)
			}
			if err := delta.Crawl(); err != nil {
				t.Fatal(err)
			}
			tc.mutate(t, cats["a"], cats["b"])
			if err := delta.Crawl(); err != nil {
				t.Fatal(err)
			}
			if got := delta.LastPass(); got != tc.want {
				t.Errorf("pass was a %s, want %s", got, tc.want)
			}
			compareSnapshots(t, 0, snap(t, delta), fullCrawl(t, delta))
		})
	}
}

// TestDeltaCrawlShardedMembersMixedOverflow drives a 16-member
// federation where concurrent writers mutate the members during the
// burst and half the members run a tiny journal window. (Its name
// predates the one-lock catalog, when every member was sharded.) After
// a big burst those members' journals have trimmed past the crawler's
// cursor — their next delta degrades to
// a full-export fallback — while the quiet members still serve true
// deltas. The merged incremental crawl must match the fullCrawl oracle
// exactly in either regime.
func TestDeltaCrawlShardedMembersMixedOverflow(t *testing.T) {
	const nMembers = 16
	delta := NewIndex("delta", "test")
	cats := make([]*catalog.Catalog, nMembers)
	for i := 0; i < nMembers; i++ {
		name := fmt.Sprintf("m%d", i)
		cat, client, _ := site(t, name)
		cats[i] = cat
		if i%2 == 0 {
			// Overflow candidates: any burst larger than ~2x4 entries
			// trims past a crawler that last saw the pre-burst
			// sequence.
			cat.SetJournalWindow(4)
		}
		delta.AddMember(name, client)
	}

	for round := 0; round < 4; round++ {
		// Concurrent burst: even members take a multi-writer storm (big
		// enough to overflow their tiny windows), odd members take one
		// small touch (well inside their default window).
		var wg sync.WaitGroup
		for i := 0; i < nMembers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if i%2 == 0 {
					var ww sync.WaitGroup
					for w := 0; w < 4; w++ {
						ww.Add(1)
						go func(w int) {
							defer ww.Done()
							for n := 0; n < 25; n++ {
								_ = cats[i].AddDataset(schema.Dataset{
									Name: fmt.Sprintf("m%d-w%d-r%d-ds%d", i, w, round, n)})
							}
						}(w)
					}
					ww.Wait()
				} else {
					_ = cats[i].AddDataset(schema.Dataset{
						Name: fmt.Sprintf("m%d-r%d-only", i, round)})
				}
			}(i)
		}
		wg.Wait()

		if round > 0 {
			// The crawler holds a pre-burst cursor for every member.
			// Verify the regimes actually diverge before crawling: every
			// overflowed member must answer that cursor with a full
			// export, every quiet member with a true delta.
			fulls, deltas := 0, 0
			for _, st := range delta.ShardStates() {
				var i int
				fmt.Sscanf(st.Authority, "m%d", &i)
				d := cats[i].ChangesSince(st.Seq, st.Instance)
				if d.Full {
					fulls++
				} else if !d.Empty() {
					deltas++
				}
			}
			if fulls < nMembers/2 || deltas < nMembers/2 {
				t.Fatalf("round %d: want mixed regimes, got %d full / %d delta", round, fulls, deltas)
			}
		}

		if err := delta.Crawl(); err != nil {
			t.Fatal(err)
		}
		compareSnapshots(t, round, snap(t, delta), fullCrawl(t, delta))
	}
}
