package codec

import (
	"encoding/json"
	"io"
	"time"
)

// jsonCodec is json/v1: encoding/json of the containers, whose tags
// fix the bytes of the JSON wire and of the snapshot.json a legacy
// directory holds. It is the reference the binary codec is checked
// against.
type jsonCodec struct{}

func (jsonCodec) EncodeSnapshot(w io.Writer, p *Payload) error { return encodeJSON(w, p) }

func (jsonCodec) DecodeSnapshot(data []byte) (*Payload, error) { return decodeJSON[Payload](data) }

func (jsonCodec) EncodeDelta(w io.Writer, d *Delta) error { return encodeJSON(w, d) }

func (jsonCodec) DecodeDelta(data []byte) (*Delta, error) { return decodeJSON[Delta](data) }

func encodeJSON(w io.Writer, v any) error {
	defer encSecJSON.ObserveSince(time.Now())
	cw := countingWriter{w: w}
	err := json.NewEncoder(&cw).Encode(v)
	encBJSON.Add(uint64(cw.n))
	return err
}

func decodeJSON[T any](data []byte) (*T, error) {
	defer decSecJSON.ObserveSince(time.Now())
	decBJSON.Add(uint64(len(data)))
	v := new(T)
	if err := json.Unmarshal(data, v); err != nil {
		return nil, err
	}
	return v, nil
}

// countingWriter tallies bytes written through it for the codec
// byte-volume counters.
type countingWriter struct {
	w io.Writer
	n int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += n
	return n, err
}
