// Package vds exposes a virtual data catalog as a network service and
// provides the client side: JSON over HTTP, vdp:// names for
// inter-catalog references, and remote-object import so that
// transformation and derivation records can hyperlink across servers as
// in Figures 2 and 3 of the paper.
package vds

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"chimera/internal/catalog"
	"chimera/internal/codec"
	"chimera/internal/obs"
	"chimera/internal/query"
	"chimera/internal/schema"
	"chimera/internal/trust"
	"chimera/internal/vdl"
)

// Server serves one catalog over HTTP.
type Server struct {
	// Name identifies the catalog (e.g. "physics.wisconsin.edu").
	Name string
	// Cat is the served catalog.
	Cat *catalog.Catalog
	// Ledger optionally carries signatures/annotations for entries.
	Ledger *trust.Ledger
	// ReadOnly rejects mutations when set.
	ReadOnly bool
	// Tracer, when set, records one server span per API request,
	// parented under the caller's span when the request carried a
	// traceparent header; handlers see the span's context, so catalog
	// and query spans triggered by the request join the same trace.
	Tracer *obs.Tracer
	// OnDebug, when set, contributes extra entries to the /debug/vdc
	// report (e.g. a daemon's federation shard states).
	OnDebug func(map[string]any)

	slow *slowRing
	mux  *http.ServeMux
}

// NewServer builds a server for the catalog.
func NewServer(name string, cat *catalog.Catalog) *Server {
	s := &Server{Name: name, Cat: cat, Ledger: trust.NewLedger(), slow: newSlowRing(0)}
	s.routes()
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Info summarizes a catalog service.
type Info struct {
	Name  string        `json:"name"`
	Stats catalog.Stats `json:"stats"`
}

// PutDerivationResponse reports the outcome of registering a derivation.
type PutDerivationResponse struct {
	Derivation schema.Derivation `json:"derivation"`
	// Reused is true when an identical derivation already existed.
	Reused bool `json:"reused"`
}

// cacheInfo is /debug/vdc's query_cache: the process-wide counters plus
// the served catalog's entry count at its current version.
type cacheInfo struct {
	query.CacheInfo
	Size int `json:"size"`
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func (s *Server) routes() {
	m := http.NewServeMux()
	s.mux = m
	// Every API route goes through the metrics middleware; the route
	// label is the mux pattern itself.
	handle := func(pattern string, h http.HandlerFunc) {
		m.HandleFunc(pattern, s.instrument(pattern, h))
	}

	// Operational endpoints, deliberately outside the middleware so
	// scrapes don't inflate the API metrics.
	m.Handle("GET /metrics", obs.Default.Handler())
	m.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if err := s.Cat.DurabilityErr(); err != nil {
			// The WAL is poisoned: the catalog still serves reads, but
			// every mutation will fail. Report unhealthy so an operator
			// (or orchestrator) replaces the node.
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{
				"status": "degraded", "name": s.Name, "stats": s.Cat.Stats(), "wal": err.Error(),
			})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "name": s.Name, "stats": s.Cat.Stats()})
	})

	// Runtime introspection: journal cursor, index cardinalities, and
	// the slowest requests with their trace IDs — the live state an
	// operator needs to debug a wedged or lagging member without a
	// debugger. Log levels are readable and settable on the same mux.
	m.HandleFunc("GET /debug/vdc", func(w http.ResponseWriter, r *http.Request) {
		info := map[string]any{
			"name":          s.Name,
			"journal":       s.Cat.JournalState(),
			"indexes":       s.Cat.IndexStats(),
			"stats":         s.Cat.Stats(),
			"query_cache":   cacheInfo{query.CacheStats(), query.CacheSize(s.Cat)},
			"slow_requests": s.slow.snapshot(),
			"goroutines":    runtime.NumGoroutine(),
		}
		if s.Tracer != nil {
			info["trace_spans"] = s.Tracer.Len()
			info["trace_spans_dropped"] = s.Tracer.Dropped()
		}
		if err := s.Cat.DurabilityErr(); err != nil {
			info["wal_error"] = err.Error()
		}
		if s.OnDebug != nil {
			s.OnDebug(info)
		}
		writeJSON(w, http.StatusOK, info)
	})
	m.Handle("/debug/loglevel", obs.LogLevelHandler())

	handle("GET /v1/info", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, Info{Name: s.Name, Stats: s.Cat.Stats()})
	})

	handle("GET /v1/export", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		binary := acceptsBinary(r.Header.Get("Accept"))
		if !q.Has("since") && !q.Has("instance") {
			// Legacy full-export form.
			exp := s.Cat.Export()
			if binary {
				writePooled(w, codec.BinaryContentType, func(buf *bytes.Buffer) error { return codec.EncodeSnapshot(buf, &exp) })
			} else {
				writePooled(w, codec.JSONContentType, func(buf *bytes.Buffer) error { return json.NewEncoder(buf).Encode(exp) })
			}
			return
		}
		since, err := strconv.ParseUint(q.Get("since"), 10, 64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad since: " + q.Get("since")})
			return
		}
		instance, err := strconv.ParseUint(q.Get("instance"), 10, 64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad instance: " + q.Get("instance")})
			return
		}
		d := s.Cat.ChangesSince(since, instance)
		if binary {
			writePooled(w, codec.BinaryContentType, func(buf *bytes.Buffer) error { return codec.EncodeDelta(buf, &d) })
		} else {
			writePooled(w, codec.JSONContentType, func(buf *bytes.Buffer) error { return json.NewEncoder(buf).Encode(d) })
		}
	})

	handle("GET /v1/types", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Cat.Types())
	})

	handle("GET /v1/datasets", func(w http.ResponseWriter, r *http.Request) {
		s.search(w, r, query.KDataset)
	})
	handle("GET /v1/transformations", func(w http.ResponseWriter, r *http.Request) {
		s.search(w, r, query.KTransformation)
	})
	handle("GET /v1/derivations", func(w http.ResponseWriter, r *http.Request) {
		s.search(w, r, query.KDerivation)
	})

	handle("GET /v1/datasets/{name...}", func(w http.ResponseWriter, r *http.Request) {
		ds, err := s.Cat.Dataset(r.PathValue("name"))
		s.reply(w, ds, err)
	})
	handle("GET /v1/transformations/{ref...}", func(w http.ResponseWriter, r *http.Request) {
		tr, err := s.Cat.Transformation(r.PathValue("ref"))
		s.reply(w, tr, err)
	})
	handle("GET /v1/derivations/{id...}", func(w http.ResponseWriter, r *http.Request) {
		dv, err := s.Cat.Derivation(r.PathValue("id"))
		s.reply(w, dv, err)
	})
	handle("GET /v1/invocations/{id...}", func(w http.ResponseWriter, r *http.Request) {
		iv, err := s.Cat.Invocation(r.PathValue("id"))
		s.reply(w, iv, err)
	})
	handle("GET /v1/replicas", func(w http.ResponseWriter, r *http.Request) {
		ds := r.URL.Query().Get("dataset")
		if ds == "" {
			writeJSON(w, http.StatusBadRequest, errorBody{"missing dataset parameter"})
			return
		}
		writeJSON(w, http.StatusOK, s.Cat.ReplicasOf(ds))
	})

	handle("GET /v1/lineage/{name...}", func(w http.ResponseWriter, r *http.Request) {
		rep, err := s.Cat.Lineage(r.PathValue("name"))
		s.reply(w, rep, err)
	})
	handle("GET /v1/ancestors/{name...}", func(w http.ResponseWriter, r *http.Request) {
		cl, err := s.Cat.Ancestors(r.PathValue("name"))
		s.reply(w, cl, err)
	})
	handle("GET /v1/descendants/{name...}", func(w http.ResponseWriter, r *http.Request) {
		cl, err := s.Cat.Descendants(r.PathValue("name"))
		s.reply(w, cl, err)
	})

	handle("PUT /v1/datasets", s.mutating(func(w http.ResponseWriter, r *http.Request) {
		var ds schema.Dataset
		if !decode(w, r, &ds) {
			return
		}
		s.replyErr(w, s.Cat.AddDataset(ds))
	}))
	handle("PUT /v1/transformations", s.mutating(func(w http.ResponseWriter, r *http.Request) {
		var tr schema.Transformation
		if !decode(w, r, &tr) {
			return
		}
		s.replyErr(w, s.Cat.AddTransformation(tr))
	}))
	handle("PUT /v1/derivations", s.mutating(func(w http.ResponseWriter, r *http.Request) {
		var dv schema.Derivation
		if !decode(w, r, &dv) {
			return
		}
		stored, err := s.Cat.AddDerivation(dv)
		if errors.Is(err, catalog.ErrDuplicate) {
			writeJSON(w, http.StatusOK, PutDerivationResponse{Derivation: stored, Reused: true})
			return
		}
		if err != nil {
			s.replyErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, PutDerivationResponse{Derivation: stored})
	}))
	handle("PUT /v1/invocations", s.mutating(func(w http.ResponseWriter, r *http.Request) {
		var iv schema.Invocation
		if !decode(w, r, &iv) {
			return
		}
		s.replyErr(w, s.Cat.AddInvocation(iv))
	}))
	handle("PUT /v1/replicas", s.mutating(func(w http.ResponseWriter, r *http.Request) {
		var rep schema.Replica
		if !decode(w, r, &rep) {
			return
		}
		s.replyErr(w, s.Cat.AddReplica(rep))
	}))

	handle("POST /v1/vdl", s.mutating(func(w http.ResponseWriter, r *http.Request) {
		src, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 16<<20))
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{err.Error()})
			return
		}
		prog, err := vdl.Parse(string(src))
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{err.Error()})
			return
		}
		if err := ApplyProgram(s.Cat, prog); err != nil {
			s.replyErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, s.Cat.Stats())
	}))

	handle("GET /v1/signatures/{kind}/{id...}", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Ledger.Signatures(r.PathValue("kind"), r.PathValue("id")))
	})
	handle("PUT /v1/signatures/{kind}/{id...}", s.mutating(func(w http.ResponseWriter, r *http.Request) {
		var sig trust.Signature
		if !decode(w, r, &sig) {
			return
		}
		s.Ledger.Attach(r.PathValue("kind"), r.PathValue("id"), sig)
		writeJSON(w, http.StatusOK, struct{}{})
	}))
	handle("GET /v1/annotations/{kind}/{id...}", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Ledger.Annotations(r.PathValue("kind"), r.PathValue("id")))
	})
	handle("PUT /v1/annotations", s.mutating(func(w http.ResponseWriter, r *http.Request) {
		var a trust.Annotation
		if !decode(w, r, &a) {
			return
		}
		s.Ledger.AddAnnotation(a)
		writeJSON(w, http.StatusOK, struct{}{})
	}))
}

func (s *Server) mutating(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.ReadOnly {
			writeJSON(w, http.StatusForbidden, errorBody{"catalog is read-only"})
			return
		}
		h(w, r)
	}
}

func (s *Server) search(w http.ResponseWriter, r *http.Request, kind query.Kind) {
	q := r.URL.Query().Get("query")
	if q == "" {
		q = "*"
	}
	e, err := query.Parse(q)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{err.Error()})
		return
	}
	// ?explain=1 returns the planner's EXPLAIN string instead of
	// executing the query, plus the result cache's placement: whether a
	// run right now would be served from the cache, and the catalog
	// version (the journal cursor "instance.seq") that placement was
	// validated against.
	if r.URL.Query().Get("explain") != "" {
		info, err := query.ExplainQuery(s.Cat, kind, e)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, struct {
			Query  string `json:"query"`
			Plan   string `json:"plan"`
			Cached bool   `json:"cached"`
			Epoch  string `json:"epoch"`
		}{Query: q, Plan: info.Plan, Cached: info.Cached, Epoch: info.Epoch})
		return
	}
	res, err := query.RunContext(r.Context(), s.Cat, kind, e)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{err.Error()})
		return
	}
	switch kind {
	case query.KDataset:
		writeJSON(w, http.StatusOK, orEmpty(res.Datasets))
	case query.KTransformation:
		writeJSON(w, http.StatusOK, orEmpty(res.Transformations))
	default:
		writeJSON(w, http.StatusOK, orEmpty(res.Derivations))
	}
}

func orEmpty[T any](xs []T) []T {
	if xs == nil {
		return []T{}
	}
	return xs
}

func (s *Server) reply(w http.ResponseWriter, v any, err error) {
	if err != nil {
		s.replyErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) replyErr(w http.ResponseWriter, err error) {
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, struct{}{})
	case errors.Is(err, catalog.ErrNotFound):
		writeJSON(w, http.StatusNotFound, errorBody{err.Error()})
	case errors.Is(err, catalog.ErrExists), errors.Is(err, catalog.ErrConflict):
		writeJSON(w, http.StatusConflict, errorBody{err.Error()})
	case errors.Is(err, catalog.ErrDurability):
		// The mutation validated but its group commit failed: this is an
		// availability fault of the server, not a bad request, and the
		// caller must not assume the write persisted.
		writeJSON(w, http.StatusServiceUnavailable, errorBody{err.Error()})
	default:
		writeJSON(w, http.StatusBadRequest, errorBody{err.Error()})
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// exportBufs pools the encode buffers for the /v1/export response
// path. Exports and deltas are by far the largest responses the server
// produces, and a federation crawl hits the endpoint once per member
// per pass — encoding into a pooled buffer reuses those multi-megabyte
// allocations across requests and lets the response carry an exact
// Content-Length instead of chunked framing.
var exportBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledExportBuf caps what goes back into the pool: one whale of a
// full export must not pin its buffer for the life of the process.
const maxPooledExportBuf = 8 << 20

// acceptsBinary reports whether an Accept header offers the binary
// export transport. Absent or wildcard-only headers (and every header a
// pre-negotiation client sends) keep the JSON default.
func acceptsBinary(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		mt, _, _ := strings.Cut(part, ";")
		if strings.TrimSpace(mt) == codec.BinaryContentType {
			return true
		}
	}
	return false
}

// writePooled encodes an export body into a pooled buffer and sends
// it with an exact Content-Length.
func writePooled(w http.ResponseWriter, contentType string, encode func(*bytes.Buffer) error) {
	buf := exportBufs.Get().(*bytes.Buffer)
	buf.Reset()
	if err := encode(buf); err != nil {
		exportBufs.Put(buf)
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: "encode: " + err.Error()})
		return
	}
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(http.StatusOK)
	w.Write(buf.Bytes())
	if buf.Cap() <= maxPooledExportBuf {
		exportBufs.Put(buf)
	}
}

func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	body := http.MaxBytesReader(w, r.Body, 16<<20)
	if err := json.NewDecoder(body).Decode(v); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{fmt.Sprintf("decode: %v", err)})
		return false
	}
	return true
}

// ApplyProgram loads a parsed VDL program into a catalog: types first,
// then datasets, transformations, and derivations. Duplicate
// derivations are tolerated (that is reuse, not error).
func ApplyProgram(c *catalog.Catalog, prog vdl.Program) error {
	for _, td := range prog.Types {
		if err := c.DefineType(td.Dim, td.Name, td.Parent); err != nil {
			return err
		}
	}
	for _, ds := range prog.Datasets {
		if err := c.AddDataset(ds); err != nil && !errors.Is(err, catalog.ErrExists) {
			return err
		}
	}
	for _, tr := range prog.Transformations {
		if err := c.AddTransformation(tr); err != nil {
			return err
		}
	}
	for _, dv := range prog.Derivations {
		if _, err := c.AddDerivation(dv); err != nil && !errors.Is(err, catalog.ErrDuplicate) {
			return err
		}
	}
	return nil
}
