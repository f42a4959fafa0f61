package federation

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"chimera/internal/catalog"
	"chimera/internal/obs"
	"chimera/internal/schema"
	"chimera/internal/vds"
)

// tracedSite spins up one catalog service whose server records spans
// into the shared tracer — the in-process stand-in for a federation
// member with its own tracer whose trace files get merged.
func tracedSite(t *testing.T, name string, tracer *obs.Tracer) (*catalog.Catalog, *vds.Client) {
	t.Helper()
	cat := catalog.New(nil)
	srv := vds.NewServer(name, cat)
	srv.Tracer = tracer
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	return cat, vds.NewClient(hs.URL)
}

// TestCrawlTraceConnected is the distributed-tracing acceptance test: a
// three-member crawl — one member hanging until its timeout — must
// yield a single causally-connected trace. Every span shares one trace
// ID and every parent link resolves: server spans hang off the client
// fetch spans that caused them (propagated via the traceparent header),
// fetch and fold/rebuild spans hang off the crawl root.
func TestCrawlTraceConnected(t *testing.T) {
	tracer := obs.NewTracer()

	catA, clientA := tracedSite(t, "alpha", tracer)
	catB, clientB := tracedSite(t, "beta", tracer)
	if err := catA.AddDataset(schema.Dataset{Name: "dsA"}); err != nil {
		t.Fatal(err)
	}
	if err := catB.AddDataset(schema.Dataset{Name: "dsB"}); err != nil {
		t.Fatal(err)
	}
	// The third member times out mid-pass: it never answers, so its
	// fetch burns the member timeout and errors — but its fetch span
	// must still be part of the same connected trace.
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	t.Cleanup(hung.Close)

	ix := NewIndex("traced", "collaboration")
	ix.AddMember("alpha", clientA)
	ix.AddMember("beta", clientB)
	ix.AddMember("hung", vds.NewClient(hung.URL))
	ix.MemberTimeout = 300 * time.Millisecond

	ctx := obs.WithTracer(context.Background(), tracer)
	if err := ix.CrawlContext(ctx); err != nil {
		t.Fatal(err)
	}
	if err := ix.MemberError("hung"); err == nil {
		t.Fatal("hung member not marked stale")
	}
	if _, ok := ix.Lookup("dataset", "dsA"); !ok {
		t.Fatal("live member not indexed despite hung peer")
	}

	// The live members' server spans End after their responses are
	// already on the wire, so they can be recorded a beat after
	// CrawlContext returns; wait for them.
	deadline := time.Now().Add(2 * time.Second)
	var spans []obs.SpanRecord
	for {
		spans = tracer.Spans()
		if countPrefix(spans, "http ") >= 2 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	byID := make(map[int64]obs.SpanRecord, len(spans))
	var root obs.SpanRecord
	roots := 0
	for _, s := range spans {
		byID[s.ID] = s
		if s.Name == "federation.crawl" {
			root = s
			roots++
		}
	}
	if roots != 1 {
		t.Fatalf("got %d federation.crawl roots, want 1", roots)
	}
	if root.Parent != 0 {
		t.Errorf("crawl root has parent %d", root.Parent)
	}

	fetches := make(map[string]obs.SpanRecord) // member -> fetch span
	for _, s := range spans {
		if s.Trace != root.Trace {
			t.Errorf("span %q trace %q, want %q (one trace per pass)", s.Name, s.Trace, root.Trace)
		}
		switch {
		case s.Name == "federation.fetch":
			if s.Parent != root.ID {
				t.Errorf("fetch span for %q parented to %d, want crawl root %d", s.Attrs["member"], s.Parent, root.ID)
			}
			fetches[s.Attrs["member"]] = s
		case s.Name == "federation.rebuild" || s.Name == "federation.fold" || s.Name == "federation.apply":
			if _, ok := byID[s.Parent]; !ok {
				t.Errorf("%s span parent %d not in trace", s.Name, s.Parent)
			}
		}
	}
	if len(fetches) != 3 {
		t.Fatalf("got fetch spans for %d members, want 3", len(fetches))
	}
	if fetches["hung"].Attrs["error"] == "" {
		t.Error("hung member's fetch span not marked with its timeout error")
	}

	// Every remote server span's parent must resolve to a client fetch
	// span — the traceparent header crossing the HTTP boundary.
	servers := 0
	for _, s := range spans {
		if len(s.Name) < 5 || s.Name[:5] != "http " {
			continue
		}
		servers++
		parent, ok := byID[s.Parent]
		if !ok {
			t.Errorf("server span %q parent %d not recorded", s.Name, s.Parent)
			continue
		}
		if parent.Name != "federation.fetch" {
			t.Errorf("server span %q parented to %q, want a fetch span", s.Name, parent.Name)
		}
	}
	if servers < 2 {
		t.Fatalf("got %d server spans, want one per live member", servers)
	}

	// The whole pass is one tree: every span walks parent links to the
	// crawl root without a break.
	for _, s := range spans {
		cur, hops := s, 0
		for cur.Parent != 0 {
			next, ok := byID[cur.Parent]
			if !ok {
				t.Fatalf("span %q: parent chain breaks at %d", s.Name, cur.Parent)
			}
			cur = next
			if hops++; hops > len(spans) {
				t.Fatalf("span %q: parent cycle", s.Name)
			}
		}
		if cur.ID != root.ID {
			t.Errorf("span %q roots at %q, want federation.crawl", s.Name, cur.Name)
		}
	}
}

func countPrefix(spans []obs.SpanRecord, prefix string) int {
	n := 0
	for _, s := range spans {
		if len(s.Name) >= len(prefix) && s.Name[:len(prefix)] == prefix {
			n++
		}
	}
	return n
}

// TestCrawlTraceSecondPassShared: an unchanged second pass still forms
// its own complete connected trace with a distinct trace ID, and a
// changed third one carries the fold span instead of a rebuild.
func TestCrawlTraceSecondPassShared(t *testing.T) {
	tracer := obs.NewTracer()
	cat, client := tracedSite(t, "solo", tracer)
	if err := cat.AddDataset(schema.Dataset{Name: "d"}); err != nil {
		t.Fatal(err)
	}
	ix := NewIndex("two-pass", "group")
	ix.AddMember("solo", client)

	ctx := obs.WithTracer(context.Background(), tracer)
	if err := ix.CrawlContext(ctx); err != nil {
		t.Fatal(err)
	}
	if err := ix.CrawlContext(ctx); err != nil {
		t.Fatal(err)
	}
	traces := make(map[string]bool)
	for _, s := range tracer.Spans() {
		if s.Name == "federation.crawl" {
			traces[s.Trace] = true
		}
	}
	if len(traces) != 2 {
		t.Errorf("two passes produced %d distinct trace IDs, want 2", len(traces))
	}

	// A changed third pass merges under federation.fold; the first
	// contact stays the only federation.rebuild.
	if err := cat.AddDataset(schema.Dataset{Name: "d2"}); err != nil {
		t.Fatal(err)
	}
	if err := ix.CrawlContext(ctx); err != nil {
		t.Fatal(err)
	}
	folds, rebuilds := 0, 0
	for _, s := range tracer.Spans() {
		switch s.Name {
		case "federation.fold":
			folds++
			if s.Attrs["changes"] != "1" || s.Attrs["abandoned"] != "" {
				t.Errorf("fold span attrs = %v, want changes=1 and not abandoned", s.Attrs)
			}
		case "federation.rebuild":
			rebuilds++
		}
	}
	if folds != 1 || rebuilds != 1 {
		t.Errorf("three passes recorded %d fold and %d rebuild spans, want 1 and 1", folds, rebuilds)
	}

	// The shard cursors are visible after the passes.
	states := ix.ShardStates()
	if len(states) != 1 || states[0].Authority != "solo" {
		t.Fatalf("shard states = %+v", states)
	}
	if states[0].Seq == 0 || states[0].Gen == 0 || states[0].Gen != states[0].BuiltGen {
		t.Errorf("cursor not advanced/merged: %+v", states[0])
	}
}
