package vds

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"chimera/internal/catalog"
	"chimera/internal/obs"
	"chimera/internal/schema"
)

// TestStatusWriterFlusher: the middleware's response wrapper must pass
// http.Flusher through (streaming handlers behind it were silently
// buffered before) and default the recorded status to 200 on a bare
// Write.
func TestStatusWriterFlusher(t *testing.T) {
	srv := NewServer("flush.test", catalog.New(nil))
	flushed := false
	h := srv.instrument("GET /stream", func(w http.ResponseWriter, r *http.Request) {
		f, ok := w.(http.Flusher)
		if !ok {
			t.Fatal("middleware writer does not implement http.Flusher")
		}
		if _, err := w.Write([]byte("chunk")); err != nil {
			t.Fatal(err)
		}
		f.Flush()
		flushed = true
	})
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest("GET", "/stream", nil))
	if !flushed {
		t.Fatal("handler did not run to Flush")
	}
	if !rec.Flushed {
		t.Error("Flush not forwarded to the underlying writer")
	}
	if rec.Code != 200 {
		t.Errorf("status = %d, want implicit 200", rec.Code)
	}

	// Unwrap must expose the underlying writer for ResponseController.
	sw := &statusWriter{ResponseWriter: rec}
	if sw.Unwrap() != http.ResponseWriter(rec) {
		t.Error("Unwrap does not return the wrapped writer")
	}
}

func TestSlowRing(t *testing.T) {
	sr := newSlowRing(2)
	base := time.Now()
	sc := obs.SpanContext{Trace: "0af7651916cd43dd8448eb211c80319c", Span: 7}
	sr.note("GET /a", 200, base, 10*time.Millisecond, sc)
	sr.note("GET /b", 200, base, 30*time.Millisecond, obs.SpanContext{})
	sr.note("GET /c", 500, base, 20*time.Millisecond, obs.SpanContext{})
	// Faster than everything retained: rejected.
	sr.note("GET /d", 200, base, 1*time.Millisecond, obs.SpanContext{})

	got := sr.snapshot()
	if len(got) != 2 {
		t.Fatalf("retained %d entries, want 2", len(got))
	}
	if got[0].Route != "GET /b" || got[1].Route != "GET /c" {
		t.Errorf("slowest-first order wrong: %+v", got)
	}
	for _, e := range got {
		if e.Route == "GET /a" {
			t.Error("fastest entry not displaced")
		}
	}

	// Trace identity rides along when present.
	sr2 := newSlowRing(4)
	sr2.note("GET /t", 200, base, time.Millisecond, sc)
	e := sr2.snapshot()[0]
	if e.TraceID != sc.Trace || e.SpanID != "7" {
		t.Errorf("trace identity = %q/%q", e.TraceID, e.SpanID)
	}
}

// TestDebugVDC exercises the introspection endpoint: journal cursor,
// index cardinalities, slow requests, the query cache size and the
// OnDebug hook.
func TestDebugVDC(t *testing.T) {
	cat := catalog.New(nil)
	if err := cat.AddDataset(schema.Dataset{Name: "d1", Attrs: schema.Attributes{"owner": "ivan"}}); err != nil {
		t.Fatal(err)
	}
	srv := NewServer("debug.test", cat)
	srv.Tracer = obs.NewTracer()
	srv.OnDebug = func(info map[string]any) { info["extra"] = "hook" }

	// One API request so the slow ring has an entry with a trace ID.
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/info", nil))
	if rec.Code != 200 {
		t.Fatalf("/v1/info: %d", rec.Code)
	}

	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/vdc", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/vdc: %d %s", rec.Code, rec.Body.String())
	}
	var info struct {
		Name    string `json:"name"`
		Journal struct {
			Seq     uint64  `json:"seq"`
			Floor   *uint64 `json:"floor"`
			Window  int     `json:"window"`
			Entries int     `json:"entries"`
			Occ     float64 `json:"occupancy"`
		} `json:"journal"`
		Indexes    map[string]int `json:"indexes"`
		Slow       []slowEntry    `json:"slow_requests"`
		Goroutines int            `json:"goroutines"`
		TraceSpans int            `json:"trace_spans"`
		Extra      string         `json:"extra"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatalf("decode: %v\n%s", err, rec.Body.String())
	}
	if info.Name != "debug.test" {
		t.Errorf("name = %q", info.Name)
	}
	if info.Journal.Seq == 0 || info.Journal.Floor == nil || info.Journal.Entries == 0 || info.Journal.Window == 0 {
		t.Errorf("journal cursor empty: %+v", info.Journal)
	}
	if info.Indexes["dataset_attr_keys"] != 1 || info.Indexes["dataset_attr_values"] != 1 {
		t.Errorf("index cardinalities wrong: %v", info.Indexes)
	}
	if len(info.Slow) == 0 || info.Slow[0].TraceID == "" {
		t.Errorf("slow ring missing the traced request: %+v", info.Slow)
	}
	if info.Goroutines <= 0 || info.TraceSpans == 0 {
		t.Errorf("runtime fields: goroutines=%d trace_spans=%d", info.Goroutines, info.TraceSpans)
	}
	if info.Extra != "hook" {
		t.Error("OnDebug hook not applied")
	}

	// query_cache.size counts the served catalog's entries at its
	// current version: a search caches one, a mutation drops it.
	cacheSize := func() int {
		t.Helper()
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/vdc", nil))
		var info struct {
			QueryCache struct {
				Size *int `json:"size"`
			} `json:"query_cache"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil || info.QueryCache.Size == nil {
			t.Fatalf("query_cache.size missing (%v): %s", err, rec.Body.String())
		}
		return *info.QueryCache.Size
	}
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/datasets?query=attr.owner+%3D+ivan", nil))
	if rec.Code != 200 {
		t.Fatalf("search: %d %s", rec.Code, rec.Body.String())
	}
	if got := cacheSize(); got != 1 {
		t.Errorf("query_cache.size after one search = %d, want 1", got)
	}
	if err := cat.AddDataset(schema.Dataset{Name: "d2"}); err != nil {
		t.Fatal(err)
	}
	if got := cacheSize(); got != 0 {
		t.Errorf("query_cache.size after a mutation = %d, want 0", got)
	}
}

// TestClientInjectsTraceparent: a context carrying a span makes the
// client stamp the outgoing request, and the server span parents under
// it — the client half of cross-process propagation.
func TestClientInjectsTraceparent(t *testing.T) {
	serverTracer := obs.NewTracer()
	cat := catalog.New(nil)
	srv := NewServer("inject.test", cat)
	srv.Tracer = serverTracer
	var gotHeader string
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotHeader = r.Header.Get("traceparent")
		srv.ServeHTTP(w, r)
	}))
	defer hs.Close()
	client := NewClient(hs.URL)

	clientTracer := obs.NewTracer()
	ctx, span := obs.StartSpan(obs.WithTracer(context.Background(), clientTracer), "caller")
	if _, _, err := client.ExportSince(ctx, 0, 0); err != nil {
		t.Fatal(err)
	}
	span.End()

	want := span.Context().Traceparent()
	if gotHeader == "" || gotHeader != want {
		t.Fatalf("traceparent header = %q, want %q", gotHeader, want)
	}
	// Server span joined the caller's trace, under the caller's span.
	deadline := time.Now().Add(2 * time.Second)
	for serverTracer.Len() == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	spans := serverTracer.Spans()
	if len(spans) == 0 {
		t.Fatal("server recorded no span")
	}
	if spans[0].Trace != span.Context().Trace || spans[0].Parent != span.Context().Span {
		t.Errorf("server span trace=%q parent=%d, want trace=%q parent=%d",
			spans[0].Trace, spans[0].Parent, span.Context().Trace, span.Context().Span)
	}

	// Without a span in the context, no header is sent.
	gotHeader = "unset-sentinel"
	if _, _, err := client.ExportSince(context.Background(), 0, 0); err != nil {
		t.Fatal(err)
	}
	if gotHeader != "" {
		t.Errorf("span-less request sent traceparent %q", gotHeader)
	}
}
