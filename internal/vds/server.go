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
		if !q.Has("since") && !q.Has("instance") {
			// Legacy full-export form.
			exp := s.Cat.Export()
			writeNegotiated(w, r, exp, func(buf *bytes.Buffer) error { return codec.EncodeSnapshot(buf, &exp) })
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
		writeNegotiated(w, r, d, func(buf *bytes.Buffer) error { return codec.EncodeDelta(buf, &d) })
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
		src, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
		if err != nil {
			writeJSON(w, bodyStatus(err), errorBody{err.Error()})
			return
		}
		prog, err := vdl.Parse(string(src))
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorBody{err.Error()})
			return
		}
		if _, err := ApplyProgram(s.Cat, prog); err != nil {
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
		if !s.holds(w, r.PathValue("kind"), r.PathValue("id")) || !decode(w, r, &sig) {
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
		if !decode(w, r, &a) || !s.holds(w, a.TargetKind, a.TargetID) {
			return
		}
		s.Ledger.AddAnnotation(a)
		writeJSON(w, http.StatusOK, struct{}{})
	}))
}

// holds reports whether the catalog holds the entry kind/id names, the
// target of a signature or annotation; if not, it answers 400 for a
// kind the catalog has no lookup for and 404 for a missing entry.
func (s *Server) holds(w http.ResponseWriter, kind, id string) bool {
	var err error
	switch kind {
	case trust.KindDataset:
		_, err = s.Cat.Dataset(id)
	case trust.KindTransformation:
		_, err = s.Cat.Transformation(id)
	case trust.KindDerivation:
		_, err = s.Cat.Derivation(id)
	case trust.KindInvocation:
		_, err = s.Cat.Invocation(id)
	default:
		writeJSON(w, http.StatusBadRequest, errorBody{fmt.Sprintf("entry kind %q: want %s, %s, %s or %s", kind,
			trust.KindDataset, trust.KindTransformation, trust.KindDerivation, trust.KindInvocation)})
		return false
	}
	if err != nil {
		s.replyErr(w, err)
		return false
	}
	return true
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
	// The body comes from the query cache's reply memo when the same
	// search in the same media type was answered at this catalog version.
	binary := acceptsBinary(r.Header.Get("Accept"))
	mediaType := codec.JSONContentType
	if binary {
		mediaType = codec.BinaryContentType
	}
	var encErr error
	body, err := query.Reply(r.Context(), s.Cat, kind, e, mediaType, func(res query.Results) ([]byte, error) {
		b, err := encodeSearch(kind, res, binary)
		encErr = err
		return b, err
	})
	switch {
	case encErr != nil:
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: "encode: " + encErr.Error()})
	case err != nil:
		writeJSON(w, http.StatusBadRequest, errorBody{err.Error()})
	default:
		w.Header().Set("Vary", "Accept")
		writeBody(w, mediaType, body)
	}
}

// encodeSearch encodes a search result as its reply body: in binary, a
// snapshot frame holding only the kind's section, in result order; in
// JSON, the bare array. It encodes into a pooled buffer and returns an
// exact-size copy, which the reply memo keeps.
func encodeSearch(kind query.Kind, res query.Results, binary bool) ([]byte, error) {
	var p codec.Payload
	var v any
	switch kind {
	case query.KDataset:
		p.Datasets, v = res.Datasets, orEmpty(res.Datasets)
	case query.KTransformation:
		p.Transformations, v = res.Transformations, orEmpty(res.Transformations)
	default:
		p.Derivations, v = res.Derivations, orEmpty(res.Derivations)
	}
	buf := replyBufs.Get().(*bytes.Buffer)
	buf.Reset()
	defer putReplyBuf(buf)
	var err error
	if binary {
		err = codec.EncodeReply(buf, &p)
	} else {
		err = json.NewEncoder(buf).Encode(v)
	}
	if err != nil {
		return nil, err
	}
	return bytes.Clone(buf.Bytes()), nil
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
	case errors.Is(err, errTooLarge):
		writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{err.Error()})
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

// replyBufs pools the encode buffers of the negotiated replies: export
// and search. Exports and deltas are by far the largest responses the
// server produces, and a federation crawl hits the endpoint once per
// member per pass; search replies are small but many. Encoding into a
// pooled buffer reuses those allocations across requests and lets the
// response carry an exact Content-Length instead of chunked framing.
var replyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledReplyBuf caps what goes back into the pool: one whale of a
// full export must not pin its buffer for the life of the process.
const maxPooledReplyBuf = 8 << 20

// acceptsBinary reports whether an Accept header offers the binary
// transport. Absent or wildcard-only headers (and every header a
// pre-negotiation client sends) keep the JSON default, and so does a
// binary entry whose quality is zero, "not acceptable" (RFC 9110
// §12.4.2).
func acceptsBinary(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		mt, params, _ := strings.Cut(part, ";")
		if strings.TrimSpace(mt) != codec.BinaryContentType {
			continue
		}
		for _, param := range strings.Split(params, ";") {
			k, v, _ := strings.Cut(param, "=")
			if strings.EqualFold(strings.TrimSpace(k), "q") {
				if q, err := strconv.ParseFloat(strings.TrimSpace(v), 64); err == nil && q == 0 {
					return false
				}
			}
		}
		return true
	}
	return false
}

// writeNegotiated sends v as JSON, or, when the request's Accept
// offers it, the binary body encodeBinary writes. Either reply varies
// with Accept, and says so for the caches in front of the server.
func writeNegotiated(w http.ResponseWriter, r *http.Request, v any, encodeBinary func(*bytes.Buffer) error) {
	w.Header().Set("Vary", "Accept")
	if acceptsBinary(r.Header.Get("Accept")) {
		writePooled(w, codec.BinaryContentType, encodeBinary)
		return
	}
	writePooled(w, codec.JSONContentType, func(buf *bytes.Buffer) error { return json.NewEncoder(buf).Encode(v) })
}

// writePooled encodes a reply body into a pooled buffer and sends it
// with an exact Content-Length.
func writePooled(w http.ResponseWriter, contentType string, encode func(*bytes.Buffer) error) {
	buf := replyBufs.Get().(*bytes.Buffer)
	buf.Reset()
	defer putReplyBuf(buf)
	if err := encode(buf); err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: "encode: " + err.Error()})
		return
	}
	writeBody(w, contentType, buf.Bytes())
}

func putReplyBuf(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledReplyBuf {
		replyBufs.Put(buf)
	}
}

// writeBody sends a 200 reply body with an exact Content-Length.
func writeBody(w http.ResponseWriter, contentType string, body []byte) {
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// maxBody caps a request body.
const maxBody = 16 << 20

// maxProgramStatements caps the statements one program may hold once
// its compound derivations are expanded (ApplyProgram). The program is
// one batch, and a batch holds the catalog's write lock for its whole
// length (docs/PERF.md); E10's largest program has 20,000 statements.
const maxProgramStatements = 1 << 15

// errTooLarge refuses a program past maxProgramStatements.
var errTooLarge = fmt.Errorf("vds: program passes the %d-statement batch cap once its compound derivations are expanded", maxProgramStatements)

// bodyStatus is 413 for a body past maxBody and 400 for any other body
// that cannot be read.
func bodyStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(v); err != nil {
		writeJSON(w, bodyStatus(err), errorBody{fmt.Sprintf("decode: %v", err)})
		return false
	}
	return true
}

// ApplyProgram is the one program loader, over the wire and local: it
// loads a parsed VDL program into a catalog as one strict batch
// (catalog.Import), all of it or none of it. A derivation of a compound
// transformation goes in as its simple leaves (schema.ExpandDerivation),
// its transformations resolving against the program's own first, then
// the catalog's; one whose transformation resolves in neither goes in
// as written, for the batch to refuse. Datasets already present and
// duplicate derivations are reuse. A type may extend one the catalog
// already holds. A program past maxProgramStatements once expanded,
// every compound call counted, is errTooLarge before anything expands.
// It returns the derivations the batch held, canonical.
func ApplyProgram(c *catalog.Catalog, prog vdl.Program) ([]schema.Derivation, error) {
	local := schema.MapResolver(prog.Transformations...)
	resolve := func(ref string) (schema.Transformation, error) {
		if tr, err := local(ref); err == nil {
			return tr, nil
		}
		return c.Transformation(ref)
	}
	size := schema.ExpansionSize(resolve, maxProgramStatements)
	n := len(prog.Types) + len(prog.Datasets) + len(prog.Transformations)
	for _, dv := range prog.Derivations {
		n += size(dv.TR)
	}
	if n > maxProgramStatements {
		return nil, errTooLarge
	}
	var dvs []schema.Derivation
	for _, dv := range prog.Derivations {
		if _, err := resolve(dv.TR); err != nil {
			dvs = append(dvs, dv)
			continue
		}
		leaves, err := schema.ExpandDerivation(dv, resolve)
		if err != nil {
			return nil, err
		}
		dvs = append(dvs, leaves...)
	}
	exp := catalog.Export{Datasets: prog.Datasets, Transformations: prog.Transformations, Derivations: dvs}
	if len(prog.Types) > 0 { // a program without types re-checks none
		exp.Types = c.Types().Clone()
	}
	for _, td := range prog.Types {
		if err := exp.Types.Register(td.Dim, td.Name, td.Parent); err != nil {
			return nil, err
		}
	}
	if err := c.Import(exp); err != nil {
		return nil, err
	}
	return dvs, nil
}
