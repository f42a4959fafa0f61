package codec

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// The binary decoder's contract under hostile input: every byte
// sequence either decodes or returns an error — never a panic, and
// never an allocation sized by attacker-controlled counts (dec.count
// bounds every prealloc by the bytes actually present). The corpus
// seeds valid snapshot/delta bodies so the fuzzer mutates real
// structure — truncations, bit flips, and varint edge values — rather
// than bouncing off the magic check.

func fuzzCorpus(f *testing.F, delta bool) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var buf bytes.Buffer
		var err error
		if delta {
			err = EncodeDelta(&buf, randDelta(rng, int(seed)*5))
		} else {
			err = EncodeSnapshot(&buf, randPayload(rng, int(seed)*5))
		}
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		// Seed classic failure shapes directly.
		b := buf.Bytes()
		f.Add(b[:len(b)/2])
		flipped := append([]byte{}, b...)
		for i := 7; i < len(flipped); i += 13 {
			flipped[i] ^= 0xff
		}
		f.Add(flipped)
	}
	f.Add([]byte("VDGB"))
	f.Add([]byte("VDGBS\x01\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01VDGE"))
	// Adversarial varint: max-length 10-byte encodings and overlong counts.
	f.Add([]byte("VDGBS\x01\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01\x10\x00\x00\x00VDGE"))
}

// A payload or delta that decodes re-encodes, and that encoding decodes
// deep-equal to it: shared attribute maps decode to equal values, and
// nothing the decoder accepts is lost on the way back.

func FuzzDecodeSnapshot(f *testing.F) {
	fuzzCorpus(f, false)
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		if p == nil {
			t.Fatal("nil payload with nil error")
		}
		var again bytes.Buffer
		if err := EncodeSnapshot(&again, p); err != nil {
			t.Fatalf("decoded payload does not re-encode: %v", err)
		}
		q, err := DecodeSnapshot(again.Bytes())
		if err != nil {
			t.Fatalf("re-encoded payload does not decode: %v", err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("re-encoded payload decodes differently:\n %+v\n %+v", p, q)
		}
	})
}

func FuzzDecodeDelta(f *testing.F) {
	fuzzCorpus(f, true)
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := DecodeDelta(data)
		if err != nil {
			return
		}
		if d == nil {
			t.Fatal("nil delta with nil error")
		}
		var again bytes.Buffer
		if err := EncodeDelta(&again, d); err != nil {
			t.Fatalf("decoded delta does not re-encode: %v", err)
		}
		e, err := DecodeDelta(again.Bytes())
		if err != nil {
			t.Fatalf("re-encoded delta does not decode: %v", err)
		}
		if !reflect.DeepEqual(d, e) {
			t.Fatalf("re-encoded delta decodes differently:\n %+v\n %+v", d, e)
		}
	})
}

// FuzzDecodeRecord: a log record either decodes or errors — the
// frame's checksum stands between it and the disk, so this is the
// decoder's own contract, seeded with one record of every kind.
func FuzzDecodeRecord(f *testing.F) {
	for _, r := range payloadRecords(randPayload(rand.New(rand.NewSource(1)), 2)) {
		rec, err := AppendRecord(nil, r.kind, r.v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(rec)
	}
	f.Fuzz(func(t *testing.T, rec []byte) {
		kind, v, err := DecodeRecord(rec)
		if err != nil {
			return
		}
		again, err := AppendRecord(nil, kind, v)
		if err != nil {
			t.Fatalf("decoded record does not re-encode: %v", err)
		}
		if _, _, err := DecodeRecord(again); err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
	})
}
