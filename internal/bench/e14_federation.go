package bench

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"chimera/internal/catalog"
	"chimera/internal/federation"
	"chimera/internal/schema"
	"chimera/internal/vds"
)

// e14RTT is the injected per-request member latency, standing in for
// the WAN round-trip a real federation pays per catalog.
const e14RTT = 2 * time.Millisecond

// E14Federation measures federation sync cost: the sequential
// full-export crawl re-fetches and re-imports every member on every
// pass, so pass latency grows with total federation size and with the
// member count times RTT; the parallel delta crawl fans member fetches
// out over a worker pool and ships only changes since each member's
// last sequence, so an unchanged federation costs one cheap round-trip
// per member and zero re-imports, and pass latency tracks the slowest
// member rather than the sum. A final storm pits both paths against
// members ingesting concurrently.
func E14Federation(memberCounts []int, objectsPerMember int) (Table, error) {
	t := Table{
		Experiment: "E14",
		Title:      "federation sync: sequential full crawl vs parallel delta crawl",
		Columns:    []string{"members", "objects", "full-ms", "delta-cold-ms", "delta-warm-ms", "delta-churn-ms", "warm-speedup"},
	}
	for _, n := range memberCounts {
		cats, full, delta, cleanup, err := e14Federation(n, objectsPerMember)
		if err != nil {
			return t, err
		}

		start := time.Now()
		if err := full.Crawl(); err != nil {
			cleanup()
			return t, err
		}
		fullMS := ms(start)

		// Cold delta pass: every member ships a full export, but the
		// fetches run in parallel.
		start = time.Now()
		if err := delta.Crawl(); err != nil {
			cleanup()
			return t, err
		}
		coldMS := ms(start)

		// Warm pass: nothing changed; one "unchanged" round-trip per
		// member, shadow untouched.
		start = time.Now()
		if err := delta.Crawl(); err != nil {
			cleanup()
			return t, err
		}
		warmMS := ms(start)

		// Churn pass: a handful of members took one new dataset each.
		churners := n / 8
		if churners < 1 {
			churners = 1
		}
		for i := 0; i < churners; i++ {
			if err := cats[i].AddDataset(schema.Dataset{Name: fmt.Sprintf("churn-%02d", i)}); err != nil {
				cleanup()
				return t, err
			}
		}
		start = time.Now()
		if err := delta.Crawl(); err != nil {
			cleanup()
			return t, err
		}
		churnMS := ms(start)
		cleanup()

		speedup := 0.0
		if warmMS > 0 {
			speedup = fullMS / warmMS
		}
		t.Add(n, n*objectsPerMember, fullMS, coldMS, warmMS, churnMS, speedup)
	}

	// Concurrent-ingest storm at the largest scale: members keep
	// ingesting while each path crawls repeatedly.
	nStorm := memberCounts[len(memberCounts)-1]
	fullStorm, deltaStorm, err := e14Storm(nStorm, objectsPerMember)
	if err != nil {
		return t, err
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("members answer with a simulated %s RTT; the sequential pass pays it once per member, the delta pass amortizes it across %d workers so wall-clock tracks the slowest member, not the sum", e14RTT, federation.DefaultWorkers),
		"delta-warm is the steady-state cost of watching an unchanged federation: one round-trip per member, no re-import, shadow reused; delta-churn fetches just the changed members' deltas and folds them into that same shadow, so it costs a warm pass plus the changes",
		fmt.Sprintf("under concurrent ingest (%d members mutating continuously): full crawl %.1f ms/pass, delta crawl %.1f ms/pass", nStorm, fullStorm, deltaStorm),
	)
	return t, nil
}

// e14Federation builds n member catalogs behind RTT-delayed servers and
// two indexes over them: the sequential full-export oracle and the
// parallel delta crawler.
func e14Federation(n, objectsPerMember int) (cats []*catalog.Catalog, full, delta *federation.Index, cleanup func(), err error) {
	full = federation.NewIndex("full", "bench")
	full.FullCrawl = true
	delta = federation.NewIndex("delta", "bench")
	var servers []*httptest.Server
	cleanup = func() {
		for _, hs := range servers {
			hs.Close()
		}
	}
	for i := 0; i < n; i++ {
		auth := fmt.Sprintf("site%03d", i)
		cat := catalog.New(nil)
		tr := schema.Transformation{Name: "t", Kind: schema.Simple, Exec: "/t",
			Args: []schema.FormalArg{{Name: "o", Direction: schema.Out}, {Name: "i", Direction: schema.In}}}
		if err := cat.AddTransformation(tr); err != nil {
			cleanup()
			return nil, nil, nil, nil, err
		}
		for k := 0; k < objectsPerMember/2; k++ {
			in := fmt.Sprintf("%s.raw%03d", auth, k)
			out := fmt.Sprintf("%s.derived%03d", auth, k)
			if _, err := cat.AddDerivation(schema.Derivation{TR: "t", Params: map[string]schema.Actual{
				"o": schema.DatasetActual("output", out),
				"i": schema.DatasetActual("input", in),
			}}); err != nil {
				cleanup()
				return nil, nil, nil, nil, err
			}
		}
		srv := vds.NewServer(auth, cat)
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			select {
			case <-time.After(e14RTT):
			case <-r.Context().Done():
				return
			}
			srv.ServeHTTP(w, r)
		}))
		servers = append(servers, hs)
		client := vds.NewClient(hs.URL)
		cats = append(cats, cat)
		full.AddMember(auth, client)
		delta.AddMember(auth, client)
	}
	return cats, full, delta, cleanup, nil
}

// e14Storm crawls both paths while every member ingests continuously,
// returning mean ms per pass for each.
func e14Storm(n, objectsPerMember int) (fullMS, deltaMS float64, err error) {
	cats, full, delta, cleanup, err := e14Federation(n, objectsPerMember)
	if err != nil {
		return 0, 0, err
	}
	defer cleanup()

	stop := make(chan struct{})
	var seq atomic.Int64
	var wg sync.WaitGroup
	for i := range cats {
		wg.Add(1)
		go func(cat *catalog.Catalog) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				case <-time.After(time.Millisecond):
				}
				_ = cat.AddDataset(schema.Dataset{Name: fmt.Sprintf("live-%d", seq.Add(1))})
			}
		}(cats[i])
	}

	// Interleave passes so both paths see comparably sized catalogs as
	// the writers keep growing them.
	const passes = 3
	for p := 0; p < passes; p++ {
		start := time.Now()
		if err := full.Crawl(); err != nil {
			close(stop)
			wg.Wait()
			return 0, 0, err
		}
		fullMS += ms(start)
		start = time.Now()
		if err := delta.Crawl(); err != nil {
			close(stop)
			wg.Wait()
			return 0, 0, err
		}
		deltaMS += ms(start)
	}
	close(stop)
	wg.Wait()
	return fullMS / passes, deltaMS / passes, nil
}
