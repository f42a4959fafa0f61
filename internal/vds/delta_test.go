package vds

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"chimera/internal/catalog"
	"chimera/internal/schema"
)

func TestExportSinceDeltaRoundTrip(t *testing.T) {
	cat, client := startServer(t, "delta-vdc")

	if err := cat.AddDataset(schema.Dataset{Name: "a"}); err != nil {
		t.Fatal(err)
	}

	// First contact: zeros force a full export.
	d, n, err := client.ExportSince(context.Background(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Full || len(d.Export.Datasets) != 1 || n <= 0 {
		t.Fatalf("first contact: full=%v datasets=%d bytes=%d", d.Full, len(d.Export.Datasets), n)
	}

	// Unchanged member: empty delta, tiny response.
	d2, n2, err := client.ExportSince(context.Background(), d.Seq, d.Instance)
	if err != nil {
		t.Fatal(err)
	}
	if !d2.Empty() || d2.Full {
		t.Fatalf("unchanged: %+v", d2)
	}
	if n2 >= n {
		t.Errorf("unchanged response (%d bytes) not smaller than full (%d)", n2, n)
	}

	// One new object: delta ships exactly it.
	if err := cat.AddDataset(schema.Dataset{Name: "b"}); err != nil {
		t.Fatal(err)
	}
	d3, _, err := client.ExportSince(context.Background(), d.Seq, d.Instance)
	if err != nil {
		t.Fatal(err)
	}
	if d3.Full || len(d3.Export.Datasets) != 1 || d3.Export.Datasets[0].Name != "b" {
		t.Fatalf("delta: %+v", d3)
	}

	// Legacy full export still works on the same route.
	resp, err := http.Get(client.Base + "/v1/export")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var exp catalog.Export
	if err := json.NewDecoder(resp.Body).Decode(&exp); err != nil || len(exp.Datasets) != 2 {
		t.Fatalf("legacy export: %d datasets, err %v", len(exp.Datasets), err)
	}
}

func TestExportSinceWindowOverflow(t *testing.T) {
	cat, client := startServer(t, "overflow-vdc")
	cat.SetJournalWindow(4)

	if err := cat.AddDataset(schema.Dataset{Name: "base"}); err != nil {
		t.Fatal(err)
	}
	d, _, err := client.ExportSince(context.Background(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := cat.AddDataset(schema.Dataset{Name: schema.Dataset{Name: "x"}.Name + string(rune('a'+i))}); err != nil {
			t.Fatal(err)
		}
	}
	d2, _, err := client.ExportSince(context.Background(), d.Seq, d.Instance)
	if err != nil {
		t.Fatal(err)
	}
	if !d2.Full || len(d2.Export.Datasets) != 21 {
		t.Fatalf("overflowed caller should get full export: full=%v n=%d", d2.Full, len(d2.Export.Datasets))
	}
}

func TestExportSinceBadParams(t *testing.T) {
	_, client := startServer(t, "bad-vdc")
	var out any
	err := client.do("GET", "/v1/export?since=notanumber&instance=0", nil, &out)
	var re *RemoteError
	if !errors.As(err, &re) || re.Status != http.StatusBadRequest {
		t.Fatalf("want 400 RemoteError, got %v", err)
	}
}

// TestResponseTooLarge: the read cap holds whether or not a reply
// declares its length, and a body within it arrives whole either way.
// A declared length past the cap fails before the body is read: that
// server sends 100 of its 4,096 bytes and waits for the client to go.
func TestResponseTooLarge(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n, _ := strconv.Atoi(r.URL.Query().Get("n"))
		body := bytes.Repeat([]byte("x"), n)
		if r.URL.Query().Get("declared") == "" {
			w.Write(body[:1])
			w.(http.Flusher).Flush() // chunked from here: no Content-Length
			w.Write(body[1:])
			return
		}
		w.Header().Set("Content-Length", strconv.Itoa(n))
		if n <= 1024 {
			w.Write(body)
			return
		}
		w.Write(body[:100])
		w.(http.Flusher).Flush()
		<-r.Context().Done()
	}))
	defer hs.Close()

	client := NewClient(hs.URL)
	client.MaxResponseBytes = 1024
	for _, declared := range []bool{false, true} {
		q := "/v1/export?declared="
		if declared {
			q += "1"
		}
		data, _, err := client.roundTrip(context.Background(), "GET", q+"&n=1024", nil, "")
		if err != nil || len(data) != 1024 {
			t.Errorf("declared=%v: a 1,024-byte reply at a 1,024-byte cap: %d bytes, %v", declared, len(data), err)
		}
		_, _, err = client.roundTrip(context.Background(), "GET", q+"&n=4096", nil, "")
		if !errors.Is(err, ErrResponseTooLarge) {
			t.Errorf("declared=%v: a 4,096-byte reply past a 1,024-byte cap: want ErrResponseTooLarge, got %v", declared, err)
		}
	}
}

func TestClientRetriesIdempotentGet(t *testing.T) {
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 3 {
			http.Error(w, `{"error":"warming up"}`, http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"ok":true}`))
	}))
	defer hs.Close()

	client := NewClient(hs.URL)
	client.RetryBackoff = time.Millisecond
	var out map[string]bool
	if err := client.do("GET", "/x", nil, &out); err != nil {
		t.Fatalf("retried GET should succeed: %v", err)
	}
	if calls.Load() != 3 {
		t.Errorf("calls: %d want 3", calls.Load())
	}
}

func TestClientDoesNotRetryMutations(t *testing.T) {
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"down"}`, http.StatusServiceUnavailable)
	}))
	defer hs.Close()

	client := NewClient(hs.URL)
	client.RetryBackoff = time.Millisecond
	err := client.do("PUT", "/x", map[string]string{"a": "b"}, nil)
	if err == nil {
		t.Fatal("expected error")
	}
	if calls.Load() != 1 {
		t.Errorf("mutation retried: %d calls", calls.Load())
	}
}

func TestClientRetryStopsOnContextCancel(t *testing.T) {
	var calls atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"down"}`, http.StatusServiceUnavailable)
	}))
	defer hs.Close()

	client := NewClient(hs.URL)
	client.Retries = 10
	client.RetryBackoff = 20 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := client.ExportSince(ctx, 0, 0)
	if err == nil {
		t.Fatal("expected error")
	}
	if time.Since(start) > 500*time.Millisecond {
		t.Errorf("retry loop outlived its context: %v", time.Since(start))
	}
	// The surfaced error should be the server's, not a bare context error.
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Errorf("want RemoteError from last attempt, got %v", err)
	}
}

func TestDefaultClientHasTimeout(t *testing.T) {
	c := NewClient("http://example.invalid")
	if c.http().Timeout == 0 {
		t.Fatal("default HTTP client has no timeout")
	}
	override := &http.Client{Timeout: time.Second}
	c.HTTP = override
	if c.http() != override {
		t.Fatal("HTTP override not honored")
	}
}
