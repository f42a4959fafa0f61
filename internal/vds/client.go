package vds

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"chimera/internal/catalog"
	"chimera/internal/codec"
	"chimera/internal/dtype"
	"chimera/internal/obs"
	"chimera/internal/schema"
	"chimera/internal/trust"
)

// Transport defaults. A catalog client must never hang forever on a
// dead or wedged member, so the default client carries a request
// timeout; callers with different needs override Client.HTTP.
const (
	// DefaultTimeout bounds one request round-trip on the default
	// transport (connect + send + wait + read body).
	DefaultTimeout = 30 * time.Second
	// DefaultRetries is how many times an idempotent (GET) request is
	// retried after a transient failure.
	DefaultRetries = 2
	// DefaultRetryBackoff is the first retry delay ceiling; actual
	// delays are fully jittered (uniform in (0, ceiling]) and the
	// ceiling doubles per attempt.
	DefaultRetryBackoff = 50 * time.Millisecond
)

// DefaultMaxResponseBytes is the response-body read cap applied when
// Client.MaxResponseBytes is zero: large enough for a multi-million
// object delta, small enough that one misbehaving server cannot balloon
// a federation crawler. Deployments shipping bigger full exports raise
// it per client (vdcd: -max-export-bytes).
const DefaultMaxResponseBytes = int64(64 << 20)

// ErrResponseTooLarge reports a response body that exceeded the
// client's read limit. Distinct from a decode failure so callers see
// "the catalog is too big to ship", not a confusing JSON error.
var ErrResponseTooLarge = errors.New("vds: response too large")

// defaultHTTP is the shared default transport: pooled connections and a
// sane per-request timeout (http.DefaultClient has none, which lets one
// hung member block a caller indefinitely).
var defaultHTTP = &http.Client{
	Timeout: DefaultTimeout,
	Transport: &http.Transport{
		MaxIdleConns:        64,
		MaxIdleConnsPerHost: 16,
		IdleConnTimeout:     90 * time.Second,
	},
}

// Client talks to a remote virtual data service.
type Client struct {
	// Base is the service root, e.g. "http://host:port".
	Base string
	// HTTP is the transport; nil uses a shared pooled client with a
	// DefaultTimeout per-request timeout.
	HTTP *http.Client
	// Retries is how many extra attempts an idempotent (GET) request
	// gets after a transient failure (transport error or 502/503/504).
	// 0 means DefaultRetries; negative disables retries. Mutating
	// requests are never retried.
	Retries int
	// RetryBackoff is the first retry delay ceiling, doubling per
	// attempt; each delay is drawn uniform in (0, ceiling] (full
	// jitter). 0 means DefaultRetryBackoff.
	RetryBackoff time.Duration
	// MaxResponseBytes caps how much of a response body the client
	// reads before failing with ErrResponseTooLarge. 0 means
	// DefaultMaxResponseBytes; negative means no limit.
	MaxResponseBytes int64
	// Binary is ignored: export requests always offer the binary
	// transport and decode whichever representation the server chose.
	//
	// Deprecated: kept for benchmark/.
	Binary bool
}

// NewClient returns a client for the service at base.
func NewClient(base string) *Client {
	return &Client{Base: strings.TrimRight(base, "/")}
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return defaultHTTP
}

func (c *Client) retries() int {
	if c.Retries < 0 {
		return 0
	}
	if c.Retries == 0 {
		return DefaultRetries
	}
	return c.Retries
}

func (c *Client) retryBackoff() time.Duration {
	if c.RetryBackoff <= 0 {
		return DefaultRetryBackoff
	}
	return c.RetryBackoff
}

func (c *Client) maxResponseBytes() int64 {
	if c.MaxResponseBytes == 0 {
		return DefaultMaxResponseBytes
	}
	if c.MaxResponseBytes < 0 {
		return int64(1)<<62 - 1
	}
	return c.MaxResponseBytes
}

// exportAccept is the Accept header offered on export and search
// requests: binary preferred, JSON acceptable. Servers that do not
// speak binary — or predate content negotiation entirely — keep
// answering JSON, which the client detects by Content-Type.
const exportAccept = codec.BinaryContentType + ", " + codec.JSONContentType

// RemoteError is a non-2xx response from a catalog service.
type RemoteError struct {
	Status  int
	Message string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("vds: remote error %d: %s", e.Status, e.Message)
}

// NotFound reports whether the error is a remote 404.
func NotFound(err error) bool {
	var re *RemoteError
	return errorsAs(err, &re) && re.Status == http.StatusNotFound
}

func errorsAs(err error, target **RemoteError) bool {
	for err != nil {
		if re, ok := err.(*RemoteError); ok {
			*target = re
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// do issues one JSON API request. See roundTrip for the retry
// contract.
func (c *Client) do(method, path string, in, out any) error {
	data, _, err := c.roundTrip(context.Background(), method, path, in, "")
	if err != nil || out == nil {
		return err
	}
	return json.Unmarshal(data, out)
}

// roundTrip issues one API request under ctx with bounded
// retry/backoff for idempotent methods, returning the raw response
// body and its Content-Type. Only GETs are retried: a transient
// transport failure or gateway-style status (502/503/504) triggers up
// to Retries extra attempts with fully-jittered exponential backoff,
// unless ctx is done first. Mutations run exactly once — the server
// may have applied a request whose response was lost. A non-empty
// accept is offered as the Accept header (export and search content
// negotiation).
func (c *Client) roundTrip(ctx context.Context, method, path string, in any, accept string) (data []byte, contentType string, err error) {
	var payload []byte
	var bodyType string
	if in != nil {
		payload, err = json.Marshal(in)
		if err != nil {
			return nil, "", err
		}
		bodyType = "application/json"
	}
	attempts := 1
	if method == http.MethodGet {
		attempts += c.retries()
	}
	ceiling := c.retryBackoff()
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			// Full jitter: sleep uniform in (0, ceiling], doubling the
			// ceiling per attempt. A federation crawl retrying many
			// members of one failed host at once would otherwise re-dogpile
			// it in lockstep at exactly backoff, 2*backoff, ... — jitter
			// spreads the herd across the whole window.
			select {
			case <-ctx.Done():
				return data, contentType, err // last attempt's error, not the bare ctx error
			case <-time.After(time.Duration(1 + rand.Int64N(int64(ceiling)))):
			}
			ceiling *= 2
		}
		d, ct, retryable, e := c.once(ctx, method, path, payload, bodyType, accept)
		if e != nil && err != nil && ctx.Err() != nil {
			// ctx ended with this attempt in flight: its error is the
			// transport's echo of ctx.Err(); the previous attempt's says why
			// we were still retrying.
			return data, contentType, err
		}
		data, contentType, err = d, ct, e
		if err == nil || !retryable || ctx.Err() != nil {
			return data, contentType, err
		}
	}
	return data, contentType, err
}

// once issues a single HTTP request, carrying payload as a body of
// type bodyType when that is set. retryable marks failures that a
// fresh attempt could plausibly cure: transport errors and upstream
// 502/503/504 responses.
func (c *Client) once(ctx context.Context, method, path string, payload []byte, bodyType, accept string) (data []byte, contentType string, retryable bool, err error) {
	var body io.Reader
	if bodyType != "" {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, body)
	if err != nil {
		return nil, "", false, err
	}
	if bodyType != "" {
		req.Header.Set("Content-Type", bodyType)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	// Propagate the caller's span so the remote server's spans parent
	// under it — one federation pass, one connected trace.
	if tp := obs.Traceparent(ctx); tp != "" {
		req.Header.Set("traceparent", tp)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, "", true, fmt.Errorf("vds: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	limit := c.maxResponseBytes()
	data, err = io.ReadAll(io.LimitReader(resp.Body, limit+1))
	if err != nil {
		return data, "", true, err
	}
	if int64(len(data)) > limit {
		// The cap used to truncate silently, surfacing later as a baffling
		// JSON unmarshal failure; name the real problem instead.
		return data, "", false, fmt.Errorf("vds: %s %s: %w (limit %d bytes)", method, path, ErrResponseTooLarge, limit)
	}
	contentType = resp.Header.Get("Content-Type")
	if resp.StatusCode/100 != 2 {
		re := &RemoteError{Status: resp.StatusCode, Message: strings.TrimSpace(string(data))}
		var eb errorBody
		if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
			re.Message = eb.Error
		}
		switch resp.StatusCode {
		case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			return data, contentType, true, re
		}
		return data, contentType, false, re
	}
	return data, contentType, false, nil
}

// isBinary reports whether a response Content-Type names the binary
// export transport.
func isBinary(contentType string) bool {
	mt, _, _ := strings.Cut(contentType, ";")
	return strings.TrimSpace(mt) == codec.BinaryContentType
}

// Info fetches service identity and stats.
func (c *Client) Info() (Info, error) {
	var out Info
	err := c.do("GET", "/v1/info", nil, &out)
	return out, err
}

// ExportSince fetches the changes the remote catalog has accumulated
// past (since, instance), as reported by an earlier Delta. Pass zeros
// on first contact to receive a full export. The returned byte count
// is the encoded response size, for transfer accounting. A
// span-carrying ctx propagates to the remote server as a traceparent
// header. The delta travels in the binary transport when the server
// speaks it; a JSON-only server degrades transparently.
func (c *Client) ExportSince(ctx context.Context, since, instance uint64) (catalog.Delta, int, error) {
	path := "/v1/export?since=" + strconv.FormatUint(since, 10) + "&instance=" + strconv.FormatUint(instance, 10)
	data, ct, err := c.roundTrip(ctx, "GET", path, nil, exportAccept)
	if err != nil {
		return catalog.Delta{}, len(data), err
	}
	if isBinary(ct) {
		d, err := codec.DecodeDelta(data)
		if err != nil {
			return catalog.Delta{}, len(data), fmt.Errorf("vds: binary delta: %w", err)
		}
		return *d, len(data), nil
	}
	var out catalog.Delta
	return out, len(data), json.Unmarshal(data, &out)
}

// Types fetches the catalog's dataset-type registry.
func (c *Client) Types() (*dtype.Registry, error) {
	out := dtype.NewRegistry()
	err := c.do("GET", "/v1/types", nil, out)
	return out, err
}

// Dataset fetches one dataset.
func (c *Client) Dataset(name string) (schema.Dataset, error) {
	var out schema.Dataset
	err := c.do("GET", "/v1/datasets/"+escapePath(name), nil, &out)
	return out, err
}

// Transformation fetches one transformation by reference.
func (c *Client) Transformation(ref string) (schema.Transformation, error) {
	var out schema.Transformation
	err := c.do("GET", "/v1/transformations/"+escapePath(ref), nil, &out)
	return out, err
}

// Derivation fetches one derivation by ID.
func (c *Client) Derivation(id string) (schema.Derivation, error) {
	var out schema.Derivation
	err := c.do("GET", "/v1/derivations/"+escapePath(id), nil, &out)
	return out, err
}

// Invocation fetches one invocation by ID.
func (c *Client) Invocation(id string) (schema.Invocation, error) {
	var out schema.Invocation
	err := c.do("GET", "/v1/invocations/"+escapePath(id), nil, &out)
	return out, err
}

// Replicas lists replicas of a dataset.
func (c *Client) Replicas(dataset string) ([]schema.Replica, error) {
	var out []schema.Replica
	err := c.do("GET", "/v1/replicas?dataset="+url.QueryEscape(dataset), nil, &out)
	return out, err
}

// Lineage fetches a dataset's audit trail.
func (c *Client) Lineage(name string) (catalog.LineageReport, error) {
	var out catalog.LineageReport
	err := c.do("GET", "/v1/lineage/"+escapePath(name), nil, &out)
	return out, err
}

// Ancestors fetches a dataset's upward provenance closure.
func (c *Client) Ancestors(name string) (catalog.Closure, error) {
	var out catalog.Closure
	err := c.do("GET", "/v1/ancestors/"+escapePath(name), nil, &out)
	return out, err
}

// Descendants fetches a dataset's downward closure.
func (c *Client) Descendants(name string) (catalog.Closure, error) {
	var out catalog.Closure
	err := c.do("GET", "/v1/descendants/"+escapePath(name), nil, &out)
	return out, err
}

// SearchDatasets runs a discovery query remotely.
func (c *Client) SearchDatasets(q string) ([]schema.Dataset, error) {
	return c.SearchDatasetsCtx(context.Background(), q)
}

// SearchDatasetsCtx runs a discovery query remotely under ctx,
// propagating the caller's span to the server.
func (c *Client) SearchDatasetsCtx(ctx context.Context, q string) ([]schema.Dataset, error) {
	return search(ctx, c, "/v1/datasets", q, func(p *codec.Payload) []schema.Dataset { return p.Datasets })
}

// SearchTransformations runs a discovery query remotely.
func (c *Client) SearchTransformations(q string) ([]schema.Transformation, error) {
	return c.SearchTransformationsCtx(context.Background(), q)
}

// SearchTransformationsCtx runs a discovery query remotely under ctx.
func (c *Client) SearchTransformationsCtx(ctx context.Context, q string) ([]schema.Transformation, error) {
	return search(ctx, c, "/v1/transformations", q, func(p *codec.Payload) []schema.Transformation { return p.Transformations })
}

// SearchDerivations runs a discovery query remotely.
func (c *Client) SearchDerivations(q string) ([]schema.Derivation, error) {
	return c.SearchDerivationsCtx(context.Background(), q)
}

// SearchDerivationsCtx runs a discovery query remotely under ctx.
func (c *Client) SearchDerivationsCtx(ctx context.Context, q string) ([]schema.Derivation, error) {
	return search(ctx, c, "/v1/derivations", q, func(p *codec.Payload) []schema.Derivation { return p.Derivations })
}

// search runs one discovery query against path, offering the binary
// transport as ExportSince does. A binary reply is a snapshot frame
// holding only the kind's section, which pick selects; a JSON reply is
// the bare array. Either way no results is an empty, non-nil slice.
func search[T any](ctx context.Context, c *Client, path, q string, pick func(*codec.Payload) []T) ([]T, error) {
	data, ct, err := c.roundTrip(ctx, "GET", path+"?query="+url.QueryEscape(q), nil, exportAccept)
	if err != nil {
		return nil, err
	}
	if isBinary(ct) {
		p, err := codec.DecodeReply(data)
		if err != nil {
			return nil, fmt.Errorf("vds: binary search reply: %w", err)
		}
		return orEmpty(pick(p)), nil
	}
	var out []T
	return out, json.Unmarshal(data, &out)
}

// PutDataset registers a dataset.
func (c *Client) PutDataset(ds schema.Dataset) error {
	return c.do("PUT", "/v1/datasets", ds, nil)
}

// PutTransformation registers a transformation.
func (c *Client) PutTransformation(tr schema.Transformation) error {
	return c.do("PUT", "/v1/transformations", tr, nil)
}

// PutDerivation registers a derivation, reporting reuse.
func (c *Client) PutDerivation(dv schema.Derivation) (PutDerivationResponse, error) {
	var out PutDerivationResponse
	err := c.do("PUT", "/v1/derivations", dv, &out)
	return out, err
}

// PutInvocation records an invocation.
func (c *Client) PutInvocation(iv schema.Invocation) error {
	return c.do("PUT", "/v1/invocations", iv, nil)
}

// PutReplica registers a replica.
func (c *Client) PutReplica(r schema.Replica) error {
	return c.do("PUT", "/v1/replicas", r, nil)
}

// PostVDL inserts VDL source text as one program (ApplyProgram) under
// ctx, whose span the request carries. It is sent once, never retried:
// the server may have applied a program whose reply was lost.
func (c *Client) PostVDL(ctx context.Context, src string) error {
	_, _, _, err := c.once(ctx, http.MethodPost, "/v1/vdl", []byte(src), "text/plain; charset=utf-8", "")
	return err
}

// Signatures fetches the signature records of an entry.
func (c *Client) Signatures(kind, id string) ([]trust.Signature, error) {
	var out []trust.Signature
	err := c.do("GET", "/v1/signatures/"+kind+"/"+escapePath(id), nil, &out)
	return out, err
}

// PutSignature attaches a signature to an entry.
func (c *Client) PutSignature(kind, id string, sig trust.Signature) error {
	return c.do("PUT", "/v1/signatures/"+kind+"/"+escapePath(id), sig, nil)
}

// Annotations fetches the annotations on an entry.
func (c *Client) Annotations(kind, id string) ([]trust.Annotation, error) {
	var out []trust.Annotation
	err := c.do("GET", "/v1/annotations/"+kind+"/"+escapePath(id), nil, &out)
	return out, err
}

// PutAnnotation records a quality annotation.
func (c *Client) PutAnnotation(a trust.Annotation) error {
	return c.do("PUT", "/v1/annotations", a, nil)
}

// escapePath escapes a logical name for use in a URL path while
// keeping path separators (names may be vdp:// URLs routed through
// {name...} wildcards).
func escapePath(s string) string {
	parts := strings.Split(s, "/")
	for i, p := range parts {
		parts[i] = url.PathEscape(p)
	}
	return strings.Join(parts, "/")
}
