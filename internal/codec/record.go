package codec

import (
	"encoding/json"
	"fmt"

	"chimera/internal/schema"
)

// Log records. The catalog's write-ahead log holds one binary/v1
// record per logged operation: a kind byte, then the body in the field
// layout the snapshot sections use (encState.dataset and friends on
// the way in, the matching binReader decoders on the way out), so a
// snapshot and a log share one record layout. A record stands alone —
// there is no string table — so symbols are written inline. Type,
// transformation and compat records are JSON blobs, as their snapshot
// sections are, and a replica removal is one inline string: the
// replica ID. Framing (length, checksums) belongs to the log.

// RecordKind names what one log record holds.
type RecordKind byte

// Record kinds and the Go value each carries.
const (
	RecType           RecordKind = iota + 1 // TypeDef
	RecDataset                              // schema.Dataset
	RecTransformation                       // schema.Transformation
	RecDerivation                           // schema.Derivation
	RecInvocation                           // schema.Invocation
	RecReplica                              // schema.Replica
	RecRemoveReplica                        // string: the replica ID
	RecCompat                               // schema.CompatibilityAssertion
)

// Record is one logged operation: a kind and the Go value it carries.
type Record struct {
	Kind  RecordKind
	Value any
}

// TypeDef is one type-registry definition, in the JSON shape of a
// dtype.Registry entry.
type TypeDef struct {
	Dim    int    `json:"dim"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
}

// AppendRecord appends the record kind(v) to dst and returns the
// extended slice; v must be the Go value kind carries. On error dst is
// returned unextended.
func AppendRecord(dst []byte, kind RecordKind, v any) ([]byte, error) {
	e := encState{buf: append(dst, byte(kind)), inline: true}
	var want RecordKind
	var err error
	switch v := v.(type) {
	case TypeDef:
		want, err = RecType, e.json(v)
	case schema.Dataset:
		want, err = RecDataset, e.dataset(&v)
	case schema.Transformation:
		want, err = RecTransformation, e.json(v)
	case schema.Derivation:
		want = RecDerivation
		e.derivation(&v)
	case schema.Invocation:
		want, err = RecInvocation, e.invocation(&v)
	case schema.Replica:
		want = RecReplica
		e.replica(&v)
	case string:
		want = RecRemoveReplica
		e.str(v)
	case schema.CompatibilityAssertion:
		want, err = RecCompat, e.json(v)
	}
	if err == nil && want != kind {
		err = fmt.Errorf("codec: %T is not a record of kind %d", v, kind)
	}
	if err != nil {
		return dst, err
	}
	return e.buf, nil
}

// json appends v's JSON encoding, unprefixed: it runs to the end of
// the record.
func (e *encState) json(v any) error {
	data, err := json.Marshal(v)
	e.raw(data)
	return err
}

// DecodeRecord parses one record written by AppendRecord. The value is
// the Go type its kind carries and owns all of its memory.
func DecodeRecord(rec []byte) (RecordKind, any, error) {
	if len(rec) == 0 {
		return 0, nil, corrupt("empty record")
	}
	kind := RecordKind(rec[0])
	r := binReader{inline: true}
	d := dec{data: rec[1:]}
	var v any
	var err error
	switch kind {
	case RecType:
		v, err = jsonRecord[TypeDef](&d)
	case RecDataset:
		v, err = decodeOne(&d, r.dataset)
	case RecTransformation:
		v, err = jsonRecord[schema.Transformation](&d)
	case RecDerivation:
		v, err = decodeOne(&d, r.derivation)
	case RecInvocation:
		v, err = decodeOne(&d, r.invocation)
	case RecReplica:
		v, err = decodeOne(&d, r.replica)
	case RecRemoveReplica:
		v, err = d.str()
	case RecCompat:
		v, err = jsonRecord[schema.CompatibilityAssertion](&d)
	default:
		return 0, nil, corrupt("unknown record kind %d", kind)
	}
	if err == nil && d.remaining() > 0 {
		err = corrupt("%d trailing byte(s) in record of kind %d", d.remaining(), kind)
	}
	if err != nil {
		return 0, nil, err
	}
	return kind, v, nil
}

// jsonRecord decodes the rest of a record as a JSON blob.
func jsonRecord[T any](d *dec) (T, error) {
	var v T
	if err := json.Unmarshal(d.data[d.off:], &v); err != nil {
		return v, corrupt("record json: %v", err)
	}
	d.off = len(d.data)
	return v, nil
}
