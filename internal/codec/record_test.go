package codec

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"chimera/internal/schema"
)

// records returns one (kind, value) pair per record a payload holds,
// every record kind included.
func payloadRecords(p *Payload) []struct {
	kind RecordKind
	v    any
} {
	type rec = struct {
		kind RecordKind
		v    any
	}
	out := []rec{{RecType, TypeDef{Dim: 1, Name: "root", Parent: "files"}}, {RecRemoveReplica, "rep-gone"}}
	for _, ds := range p.Datasets {
		out = append(out, rec{RecDataset, ds})
	}
	for _, tr := range p.Transformations {
		out = append(out, rec{RecTransformation, tr})
	}
	for _, dv := range p.Derivations {
		out = append(out, rec{RecDerivation, dv})
	}
	for _, iv := range p.Invocations {
		out = append(out, rec{RecInvocation, iv})
	}
	for _, r := range p.Replicas {
		out = append(out, rec{RecReplica, r})
	}
	for _, a := range p.Compat {
		out = append(out, rec{RecCompat, a})
	}
	return out
}

// TestRecordRoundTrip: every record kind decodes to what was encoded,
// with nothing aliasing the input, and appends after what dst held.
func TestRecordRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		p := randPayload(rand.New(rand.NewSource(seed)), 20)
		for i, r := range payloadRecords(p) {
			what := fmt.Sprintf("seed %d record %d (kind %d)", seed, i, r.kind)
			prefix := []byte("prefix")
			buf, err := AppendRecord(bytes.Clone(prefix), r.kind, r.v)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if !bytes.HasPrefix(buf, prefix) {
				t.Fatalf("%s: dst overwritten", what)
			}
			rec := buf[len(prefix):]
			kind, v, err := DecodeRecord(rec)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if kind != r.kind {
				t.Fatalf("%s: decoded kind %d", what, kind)
			}
			for j := range rec {
				rec[j] = 0xff // decoded values must not alias the record
			}
			jsonEq(t, what, r.v, v)
		}
	}
}

// TestRecordSharesSnapshotLayout: a record's body is the snapshot's
// record with symbols inline — here a replica whose one symbol (its
// site) is the first string in the snapshot's table.
func TestRecordSharesSnapshotLayout(t *testing.T) {
	r := schema.Replica{ID: "r1", Dataset: "ds", Site: "anl", PFN: "/p", Size: 9, Epoch: 2, ProducedBy: "dv"}
	rec, err := AppendRecord(nil, RecReplica, r)
	if err != nil {
		t.Fatal(err)
	}
	e := getEnc()
	defer putEnc(e)
	e.replica(&r)
	snap := e.buf
	want := append([]byte{byte(RecReplica)}, snap[:6]...) // ID, Dataset
	want = append(want, 3, 'a', 'n', 'l')                 // Site, inline
	want = append(want, snap[7:]...)                      // PFN on, after symbol 0
	if !bytes.Equal(rec, want) {
		t.Fatalf("record %x, want %x", rec, want)
	}
}

func TestRecordRejects(t *testing.T) {
	if _, err := AppendRecord(nil, RecDataset, schema.Replica{ID: "r"}); err == nil {
		t.Error("a replica encoded as a dataset record")
	}
	if _, err := AppendRecord(nil, RecType, 42); err == nil {
		t.Error("an int encoded as a record")
	}
	good, err := AppendRecord(nil, RecDataset, schema.Dataset{Name: "ds", Size: 7})
	if err != nil {
		t.Fatal(err)
	}
	for name, rec := range map[string][]byte{
		"empty":         nil,
		"unknown kind":  append([]byte{99}, good[1:]...),
		"trailing byte": append(bytes.Clone(good), 0),
		"truncated":     good[:len(good)-1],
		"bad json":      append([]byte{byte(RecCompat)}, "{"...),
		"long string":   append([]byte{byte(RecRemoveReplica)}, 200),
	} {
		if _, _, err := DecodeRecord(rec); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
	big := strings.Repeat("<", 1<<20)
	rec, err := AppendRecord(nil, RecRemoveReplica, big)
	if err != nil {
		t.Fatal(err)
	}
	if _, v, err := DecodeRecord(rec); err != nil || v != big {
		t.Fatalf("large inline string: %v", err)
	}
}
