// Package codec owns the catalog's export containers and their one
// binary encoding. Payload is the full catalog state, Delta an
// incremental export with its sync cursor, Tombstone a deletion inside
// a delta; catalog.Export, catalog.Delta and catalog.Tombstone are
// these types, so a catalog export reaches the codec without a copy.
//
// binary/v1 (binary.go) is a compact length-prefixed format with
// varint framing, string interning and an on-disk offset index. It is
// the catalog's one on-disk format: its snapshot, and its write-ahead
// log, one standalone record per operation in the snapshot's record
// layout (record.go). It is also the negotiated wire format of
// /v1/export and of search replies; callers use EncodeSnapshot,
// DecodeSnapshot, EncodeDelta, DecodeDelta and, for search replies,
// EncodeReply and DecodeReply directly. The JSON wire form is encoding/json of the
// same containers, whose tags fix its bytes; json.go keeps it as a
// codec too, the reference the binary codec is tested against.
// codec sits below catalog in the import graph so both catalog
// snapshots and vds wire bodies share one implementation.
package codec

import (
	"fmt"
	"io"
	"sort"

	"chimera/internal/dtype"
	"chimera/internal/schema"
)

// Codec names and content types.
const (
	// JSONName names the JSON encoding, json/v1.
	JSONName = "json/v1"
	// BinaryName names the binary encoding, binary/v1.
	BinaryName = "binary/v1"

	// JSONContentType is the HTTP content type of JSON-encoded bodies.
	JSONContentType = "application/json"
	// BinaryContentType is the HTTP content type of binary-encoded
	// export bodies; clients offer it in Accept to negotiate the
	// binary transport and fall back to JSON when the server does not
	// speak it.
	BinaryContentType = "application/x-vdg-binary"
)

// Payload is the full-state serialization used for snapshots and for
// shipping catalog contents between services (catalog.Export).
type Payload struct {
	Types           *dtype.Registry                 `json:"types"`
	Datasets        []schema.Dataset                `json:"datasets,omitempty"`
	Transformations []schema.Transformation         `json:"transformations,omitempty"`
	Derivations     []schema.Derivation             `json:"derivations,omitempty"`
	Invocations     []schema.Invocation             `json:"invocations,omitempty"`
	Replicas        []schema.Replica                `json:"replicas,omitempty"`
	Compat          []schema.CompatibilityAssertion `json:"compat,omitempty"`
}

// Sort orders every object slice by its identity, the canonical order
// a catalog export itself has. Callers assembling a Payload by hand
// (e.g. a federation index reconstructing member state from deltas)
// use it so downstream merges stay deterministic.
func (p *Payload) Sort() {
	sort.Slice(p.Datasets, func(i, j int) bool { return p.Datasets[i].Name < p.Datasets[j].Name })
	sort.Slice(p.Transformations, func(i, j int) bool { return p.Transformations[i].Ref() < p.Transformations[j].Ref() })
	sort.Slice(p.Derivations, func(i, j int) bool { return p.Derivations[i].ID < p.Derivations[j].ID })
	sort.Slice(p.Invocations, func(i, j int) bool { return p.Invocations[i].ID < p.Invocations[j].ID })
	sort.Slice(p.Replicas, func(i, j int) bool { return p.Replicas[i].ID < p.Replicas[j].ID })
}

// Tombstone records a deletion inside a delta export. The only
// removable object class today is the replica.
type Tombstone struct {
	Kind string `json:"kind"`
	ID   string `json:"id"`
}

// Delta is an incremental export: the current value of every object
// mutated after Since, plus tombstones for objects that no longer
// exist. Full marks a degraded response carrying the complete catalog
// (the caller was behind the journal window, ahead of the
// sequence, at sequence zero, or synced against a different instance).
// Export.Types and Export.Compat are nil unless the registry or the
// assertion list changed.
type Delta struct {
	// Instance identifies the catalog the sequence numbers belong to.
	Instance uint64 `json:"instance"`
	// Since echoes the request's sequence.
	Since uint64 `json:"since"`
	// Seq is the catalog sequence this delta brings the caller up to.
	Seq uint64 `json:"seq"`
	// Full marks Export as the complete catalog state.
	Full       bool        `json:"full,omitempty"`
	Export     Payload     `json:"export"`
	Tombstones []Tombstone `json:"tombstones,omitempty"`
}

// Empty reports whether the delta carries no changes at all — the
// "unchanged member" fast path of a federation crawl.
func (d Delta) Empty() bool {
	return !d.Full &&
		len(d.Export.Datasets) == 0 &&
		len(d.Export.Transformations) == 0 &&
		len(d.Export.Derivations) == 0 &&
		len(d.Export.Invocations) == 0 &&
		len(d.Export.Replicas) == 0 &&
		len(d.Export.Compat) == 0 &&
		d.Export.Types == nil &&
		len(d.Tombstones) == 0
}

// CodecPayload returns p.
//
// Deprecated: kept for benchmark/, which was written when the catalog
// and the codec declared the container separately.
func (p *Payload) CodecPayload() *Payload { return p }

// CodecDelta returns d.
//
// Deprecated: kept for benchmark/, which was written when the catalog
// and the codec declared the container separately.
func (d *Delta) CodecDelta() *Delta { return d }

// Codec serializes catalog state. Decoded values never alias the input
// bytes.
//
// Deprecated: kept for benchmark/; call EncodeSnapshot, DecodeSnapshot,
// EncodeDelta and DecodeDelta.
type Codec interface {
	EncodeSnapshot(w io.Writer, p *Payload) error
	DecodeSnapshot(data []byte) (*Payload, error)
	EncodeDelta(w io.Writer, d *Delta) error
	DecodeDelta(data []byte) (*Delta, error)
}

// Lookup resolves JSONName or BinaryName to its codec.
//
// Deprecated: kept for benchmark/; call the binary functions directly.
func Lookup(name string) (Codec, error) {
	switch name {
	case BinaryName:
		return binaryCodec{}, nil
	case JSONName:
		return jsonCodec{}, nil
	}
	return nil, fmt.Errorf("codec: unknown codec %q (known: %s, %s)", name, JSONName, BinaryName)
}
