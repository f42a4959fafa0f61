// Package codec implements pluggable catalog serialization formats
// behind a runtime registry, in the spirit of dvid's datatype-format
// registry: callers name the codec they want, and the registry resolves
// that name against whatever codecs the binary has compiled in.
// Unknown names fail loudly, listing what is registered.
//
// Two codecs ship today: "json/v1", the line-for-line equivalent of
// the original encoding/json surfaces, and "binary/v1", a compact
// length-prefixed format with varint framing, string interning and an
// on-disk offset index (binary.go). binary/v1 is the catalog's one
// on-disk format: its snapshot, and its write-ahead log, one
// standalone record per operation in the snapshot's record layout
// (record.go); json/v1 remains a wire format. The containers here (Payload,
// Delta) deliberately mirror catalog.Export and catalog.Delta
// field-for-field so conversion is slice reuse, not copying; codec
// sits below catalog in the import graph so both catalog snapshots and
// vds wire bodies can share one implementation.
package codec

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"chimera/internal/dtype"
	"chimera/internal/schema"
)

// Codec names and content types.
const (
	// JSONName is the registry name of the JSON codec.
	JSONName = "json/v1"
	// BinaryName is the registry name of the binary codec.
	BinaryName = "binary/v1"

	// JSONContentType is the HTTP content type of JSON-encoded bodies.
	JSONContentType = "application/json"
	// BinaryContentType is the HTTP content type of binary-encoded
	// export bodies; clients offer it in Accept to negotiate the
	// binary transport and fall back to JSON when the server does not
	// speak it.
	BinaryContentType = "application/x-vdg-binary"
)

// Payload is the codec-neutral full-state container: field-for-field
// (and JSON-tag-for-JSON-tag) the shape of catalog.Export, so the JSON
// codec reproduces the legacy snapshot and wire bytes exactly.
type Payload struct {
	Types           *dtype.Registry                 `json:"types"`
	Datasets        []schema.Dataset                `json:"datasets,omitempty"`
	Transformations []schema.Transformation         `json:"transformations,omitempty"`
	Derivations     []schema.Derivation             `json:"derivations,omitempty"`
	Invocations     []schema.Invocation             `json:"invocations,omitempty"`
	Replicas        []schema.Replica                `json:"replicas,omitempty"`
	Compat          []schema.CompatibilityAssertion `json:"compat,omitempty"`
}

// Tombstone mirrors catalog.Tombstone: a deletion inside a delta.
type Tombstone struct {
	Kind string `json:"kind"`
	ID   string `json:"id"`
}

// Delta mirrors catalog.Delta: an incremental export plus the sync
// cursor it advances the caller to.
type Delta struct {
	Instance   uint64      `json:"instance"`
	Since      uint64      `json:"since"`
	Seq        uint64      `json:"seq"`
	Full       bool        `json:"full,omitempty"`
	Payload    Payload     `json:"export"`
	Tombstones []Tombstone `json:"tombstones,omitempty"`
}

// Codec serializes catalog state. Implementations must be safe for
// concurrent use, and decoded values must never alias the input bytes:
// the snapshot read path hands DecodeSnapshot a memory-mapped file and
// unmaps it as soon as the call returns.
type Codec interface {
	// Name is the registry name Lookup resolves.
	Name() string
	// ContentType is the HTTP content type of encoded bodies.
	ContentType() string
	// EncodeSnapshot writes the full-state form of p to w.
	EncodeSnapshot(w io.Writer, p *Payload) error
	// DecodeSnapshot parses a full-state body. The returned payload
	// owns all of its memory.
	DecodeSnapshot(data []byte) (*Payload, error)
	// EncodeDelta writes the incremental form of d to w.
	EncodeDelta(w io.Writer, d *Delta) error
	// DecodeDelta parses an incremental body. The returned delta owns
	// all of its memory.
	DecodeDelta(data []byte) (*Delta, error)
}

var (
	regMu    sync.RWMutex
	registry = make(map[string]Codec)
)

// Register adds a codec under its Name. Registering the same name
// twice panics: two codecs claiming one name would make Lookup
// ambiguous.
func Register(c Codec) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[c.Name()]; dup {
		panic(fmt.Sprintf("codec: duplicate registration of %q", c.Name()))
	}
	registry[c.Name()] = c
}

// Lookup resolves a codec by registry name. Unknown names error with
// the list of registered codecs, so a catalog directory written by a
// newer binary fails with "you are missing binary/v2", not a parse
// error.
func Lookup(name string) (Codec, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	if c, ok := registry[name]; ok {
		return c, nil
	}
	return nil, fmt.Errorf("codec: unknown codec %q (registered: %v)", name, namesLocked())
}

// Names lists the registered codec names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return namesLocked()
}

func namesLocked() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func init() {
	Register(jsonCodec{})
	Register(binaryCodec{})
}
