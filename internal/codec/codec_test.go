package codec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"

	"chimera/internal/dtype"
	"chimera/internal/schema"
)

// randPayload builds a payload exercising every field the codecs
// carry: interned and inline strings, nil and empty maps, nested
// Actuals, zero and zoned times, negative sizes.
func randPayload(rng *rand.Rand, n int) *Payload {
	p := &Payload{Types: dtype.NewRegistry()}
	sites := []string{"site-a", "site-b", "ral.uk", ""}
	zones := []*time.Location{time.UTC, time.FixedZone("X", 3600), time.FixedZone("Y", -5*3600)}
	for i := 0; i < n; i++ {
		ds := schema.Dataset{
			Name: fmt.Sprintf("lfn://run%04d/f%d.evt", rng.Intn(500), i),
			Type: dtype.Type{Content: "events", Format: "root", Encoding: pick(rng, "", "zstd", "gzip")},
			Size: rng.Int63n(1 << 40),
		}
		if rng.Intn(3) == 0 {
			ds.Size = -1
		}
		ds.Epoch = rng.Intn(10)
		ds.CreatedBy = pick(rng, "", "dv-1", "dv-2")
		if rng.Intn(2) == 0 {
			ds.Attrs = schema.Attributes{"owner": pick(rng, "cms", "atlas"), "run": fmt.Sprint(rng.Intn(99))}
		}
		if rng.Intn(4) == 0 {
			ds.Descriptor = schema.FileDescriptor{Path: fmt.Sprintf("/store/f%d", i)}
		}
		p.Datasets = append(p.Datasets, ds)

		rep := schema.Replica{
			ID:      fmt.Sprintf("rep-%d", i),
			Dataset: ds.Name,
			Site:    pick(rng, sites...),
			PFN:     fmt.Sprintf("gsiftp://%s/store/%d", pick(rng, sites...), i),
			Size:    ds.Size,
			Epoch:   ds.Epoch,
		}
		if rng.Intn(2) == 0 {
			rep.Attrs = schema.Attributes{"checksum": fmt.Sprintf("%08x", rng.Uint32())}
		}
		p.Replicas = append(p.Replicas, rep)

		dv := schema.Derivation{
			ID:   fmt.Sprintf("dv-%d", i),
			Name: fmt.Sprintf("derive-%d", i),
			TR:   pick(rng, "tr.reco", "tr.sim", "tr.merge"),
		}
		switch rng.Intn(3) {
		case 0: // nil Params — must survive (no omitempty on the JSON tag)
		case 1:
			dv.Params = map[string]schema.Actual{}
		default:
			dv.Params = map[string]schema.Actual{
				"in": {Kind: schema.ADataset, Value: ds.Name, Direction: "in"},
				"opts": {Kind: schema.AList, Direction: "in", List: []schema.Actual{
					{Kind: schema.AString, Value: "fast"},
					{Kind: schema.AString, Value: pick(rng, "x", "")},
				}},
			}
		}
		if rng.Intn(2) == 0 {
			dv.Env = map[string]string{"PATH": "/usr/bin", "TZ": pick(rng, "UTC", "CET")}
		}
		dv.Parent = pick(rng, "", "dv-0")
		p.Derivations = append(p.Derivations, dv)

		iv := schema.Invocation{
			ID:         fmt.Sprintf("iv-%d", i),
			Derivation: dv.ID,
			Site:       pick(rng, sites...),
			Host:       pick(rng, "wn001", "wn002", ""),
			ExitCode:   rng.Intn(3) - 1,
			OS:         "linux",
			Arch:       pick(rng, "amd64", "arm64"),
			BytesIn:    rng.Int63n(1 << 30),
			BytesOut:   -rng.Int63n(4),
		}
		if rng.Intn(3) > 0 {
			iv.Start = time.Unix(rng.Int63n(1<<31), rng.Int63n(1e9)).In(zones[rng.Intn(len(zones))])
			iv.End = iv.Start.Add(time.Duration(rng.Int63n(int64(time.Hour))))
		}
		if rng.Intn(2) == 0 {
			iv.Env = map[string]string{"SCRAM_ARCH": "slc5"}
			iv.UsedReplicas = map[string]string{ds.Name: rep.ID}
			iv.ProducedReplicas = map[string]string{ds.Name + ".out": "rep-out-" + fmt.Sprint(i)}
			iv.Attrs = schema.Attributes{"queue": "prod"}
		}
		p.Invocations = append(p.Invocations, iv)
	}
	if n > 0 {
		p.Transformations = []schema.Transformation{{
			Namespace: "cms", Name: "reco", Version: "1.2.0",
		}}
		p.Compat = []schema.CompatibilityAssertion{{
			Namespace: "cms", Name: "reco", V1: "1.0.0", V2: "1.2.0", Mode: schema.Equivalent, AssertedBy: "ops",
		}}
	}
	return p
}

func pick(rng *rand.Rand, opts ...string) string { return opts[rng.Intn(len(opts))] }

func randDelta(rng *rand.Rand, n int) *Delta {
	d := &Delta{
		Instance: rng.Uint64(),
		Since:    uint64(rng.Intn(100)),
		Seq:      uint64(100 + rng.Intn(100)),
		Full:     rng.Intn(2) == 0,
		Export:   *randPayload(rng, n),
	}
	for i := 0; i < rng.Intn(4); i++ {
		d.Tombstones = append(d.Tombstones, Tombstone{Kind: pick(rng, "dataset", "replica"), ID: fmt.Sprintf("gone-%d", i)})
	}
	return d
}

// jsonEq compares two values through their JSON form — the repo-wide
// equivalence oracle: if the JSON bytes match, the catalogs a client
// materializes from either codec are identical.
func jsonEq(t *testing.T, what string, a, b any) {
	t.Helper()
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatalf("%s: marshal a: %v", what, err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatalf("%s: marshal b: %v", what, err)
	}
	if !bytes.Equal(ja, jb) {
		t.Fatalf("%s: payloads differ\n a: %.400s\n b: %.400s", what, ja, jb)
	}
}

// TestRegistry: Lookup resolves the two codec names and refuses any
// other, naming both.
func TestRegistry(t *testing.T) {
	for name, want := range map[string]Codec{JSONName: jsonCodec{}, BinaryName: binaryCodec{}} {
		if c, err := Lookup(name); err != nil || c != want {
			t.Fatalf("Lookup(%q) = %T, %v", name, c, err)
		}
	}
	if _, err := Lookup("binary/v9"); err == nil {
		t.Fatal("Lookup of unknown codec succeeded")
	} else if !strings.Contains(err.Error(), BinaryName) || !strings.Contains(err.Error(), JSONName) {
		t.Fatalf("unknown-codec error should name both codecs, got: %v", err)
	}
}

// TestRoundTripOracle is the randomized cross-codec equivalence
// oracle: for many seeded random payloads, encode+decode through each
// codec and through mixed pairs must reproduce the same in-memory
// catalog (compared via JSON bytes).
func TestRoundTripOracle(t *testing.T) {
	jsonC := jsonCodec{}
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randPayload(rng, rng.Intn(40))
		var viaJSON, viaBin bytes.Buffer
		if err := jsonC.EncodeSnapshot(&viaJSON, p); err != nil {
			t.Fatalf("seed %d: json encode: %v", seed, err)
		}
		if err := EncodeSnapshot(&viaBin, p); err != nil {
			t.Fatalf("seed %d: binary encode: %v", seed, err)
		}
		pj, err := jsonC.DecodeSnapshot(viaJSON.Bytes())
		if err != nil {
			t.Fatalf("seed %d: json decode: %v", seed, err)
		}
		pb, err := DecodeSnapshot(viaBin.Bytes())
		if err != nil {
			t.Fatalf("seed %d: binary decode: %v", seed, err)
		}
		jsonEq(t, fmt.Sprintf("seed %d snapshot json-vs-binary", seed), pj, pb)
		jsonEq(t, fmt.Sprintf("seed %d snapshot binary-vs-original", seed), p, pb)

		d := randDelta(rng, rng.Intn(20))
		var dj, db bytes.Buffer
		if err := jsonC.EncodeDelta(&dj, d); err != nil {
			t.Fatalf("seed %d: json delta encode: %v", seed, err)
		}
		if err := EncodeDelta(&db, d); err != nil {
			t.Fatalf("seed %d: binary delta encode: %v", seed, err)
		}
		ddj, err := jsonC.DecodeDelta(dj.Bytes())
		if err != nil {
			t.Fatalf("seed %d: json delta decode: %v", seed, err)
		}
		ddb, err := DecodeDelta(db.Bytes())
		if err != nil {
			t.Fatalf("seed %d: binary delta decode: %v", seed, err)
		}
		jsonEq(t, fmt.Sprintf("seed %d delta json-vs-binary", seed), ddj, ddb)
		jsonEq(t, fmt.Sprintf("seed %d delta binary-vs-original", seed), d, ddb)
	}
}

// TestBinaryDeterministic: equal payloads encode to identical bytes
// (map iteration must not leak into the output).
func TestBinaryDeterministic(t *testing.T) {
	p := randPayload(rand.New(rand.NewSource(3)), 30)
	var a, b bytes.Buffer
	if err := EncodeSnapshot(&a, p); err != nil {
		t.Fatal(err)
	}
	if err := EncodeSnapshot(&b, p); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two encodes of the same payload differ")
	}
}

// TestBinaryNoAliasing: decoded values must survive the input buffer
// being clobbered — the mmap read path unmaps right after decode.
func TestBinaryNoAliasing(t *testing.T) {
	p := randPayload(rand.New(rand.NewSource(4)), 10)
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, p); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	got, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(got)
	for i := range data {
		data[i] = 0xff
	}
	after, _ := json.Marshal(got)
	if !bytes.Equal(want, after) {
		t.Fatal("decoded payload aliases input buffer")
	}
}

// TestBinaryFrameMismatch: a snapshot body must not decode as a delta
// and vice versa.
func TestBinaryFrameMismatch(t *testing.T) {
	p := randPayload(rand.New(rand.NewSource(5)), 3)
	var snap bytes.Buffer
	if err := EncodeSnapshot(&snap, p); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeDelta(snap.Bytes()); err == nil {
		t.Fatal("snapshot bytes decoded as delta")
	}
	var del bytes.Buffer
	if err := EncodeDelta(&del, &Delta{Export: *p}); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSnapshot(del.Bytes()); err == nil {
		t.Fatal("delta bytes decoded as snapshot")
	}
}

// TestBinaryCorruptInputs: hand-built structural corruptions must
// error, not panic.
func TestBinaryCorruptInputs(t *testing.T) {
	p := randPayload(rand.New(rand.NewSource(6)), 8)
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, p); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := map[string][]byte{
		"empty":     {},
		"short":     good[:8],
		"bad magic": append([]byte("NOPE"), good[4:]...),
		"bad tail":  append(append([]byte{}, good[:len(good)-4]...), 'X', 'X', 'X', 'X'),
		"truncated": good[:len(good)*2/3],
	}
	for i := 0; i < len(good); i += 17 { // systematic bit flips
		mut := append([]byte{}, good...)
		mut[i] ^= 0x80
		cases[fmt.Sprintf("flip@%d", i)] = mut
	}
	for name, data := range cases {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: panic: %v", name, r)
				}
			}()
			if got, err := DecodeSnapshot(data); err == nil {
				// A flipped bit inside a string is a legal different
				// value; only structural cases must always fail.
				if name == "empty" || name == "short" || name == "bad magic" || name == "bad tail" || name == "truncated" {
					t.Errorf("%s: decode succeeded (%+v)", name, got)
				}
			}
		}()
	}
}

// TestBinarySmallerThanJSON sanity-checks the size claim: on a
// representative payload the binary form must be materially smaller.
func TestBinarySmallerThanJSON(t *testing.T) {
	jsonC := jsonCodec{}
	d := randDelta(rand.New(rand.NewSource(7)), 200)
	var j, b bytes.Buffer
	if err := jsonC.EncodeDelta(&j, d); err != nil {
		t.Fatal(err)
	}
	if err := EncodeDelta(&b, d); err != nil {
		t.Fatal(err)
	}
	if b.Len()*2 > j.Len() {
		t.Fatalf("binary delta (%d bytes) not 2x smaller than JSON (%d bytes)", b.Len(), j.Len())
	}
}

// TestDecodeSharesEqualAttrSets: within one section, a record whose
// attribute set encodes to the previous record's bytes gets that
// record's decoded map, and no other two records share one. Random runs
// of equal and unequal sets — empty and nil ones among them, equal sets
// built separately — fill all four record sections of snapshots and
// deltas, and every decode equals the JSON oracle.
func TestDecodeSharesEqualAttrSets(t *testing.T) {
	sets := []func() schema.Attributes{
		func() schema.Attributes { return nil },
		func() schema.Attributes { return schema.Attributes{} },
		func() schema.Attributes { return schema.Attributes{"project": "cms", "tag": "t1"} },
		func() schema.Attributes { return schema.Attributes{"tag": "t1", "project": "cms"} },
		func() schema.Attributes { return schema.Attributes{"project": "cms", "tag": "t2"} },
		func() schema.Attributes { return schema.Attributes{"project": ""} },
	}
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// runs returns n attribute sets drawn as runs of one to four.
		runs := func() []schema.Attributes {
			var out []schema.Attributes
			for n := rng.Intn(24); len(out) < n; {
				set := sets[rng.Intn(len(sets))]
				for k := 1 + rng.Intn(4); k > 0; k-- {
					out = append(out, set())
				}
			}
			return out
		}
		p := &Payload{}
		for i, a := range runs() {
			p.Datasets = append(p.Datasets, schema.Dataset{Name: fmt.Sprintf("ds%03d", i), Attrs: a})
		}
		for i, a := range runs() {
			p.Derivations = append(p.Derivations, schema.Derivation{ID: fmt.Sprintf("dv%03d", i), TR: "tr", Attrs: a})
		}
		for i, a := range runs() {
			p.Invocations = append(p.Invocations, schema.Invocation{ID: fmt.Sprintf("iv%03d", i), Attrs: a})
		}
		for i, a := range runs() {
			p.Replicas = append(p.Replicas, schema.Replica{ID: fmt.Sprintf("r%03d", i), Attrs: a})
		}
		var snap, del bytes.Buffer
		if err := EncodeSnapshot(&snap, p); err != nil {
			t.Fatal(err)
		}
		if err := EncodeDelta(&del, &Delta{Seq: 1, Export: *p}); err != nil {
			t.Fatal(err)
		}
		got, err := DecodeSnapshot(snap.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		d, err := DecodeDelta(del.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		for what, q := range map[string]*Payload{"snapshot": got, "delta": &d.Export} {
			jsonEq(t, fmt.Sprintf("seed %d %s", seed, what), p, q)
			requireSharing(t, fmt.Sprintf("seed %d %s", seed, what), p, q)
		}
	}
}

// requireSharing checks that got's non-empty attribute maps are one map
// exactly where want's sets form a run of equal sets in one section.
func requireSharing(t *testing.T, what string, want, got *Payload) {
	t.Helper()
	dv := func(v schema.Derivation) schema.Attributes { return v.Attrs }
	iv := func(v schema.Invocation) schema.Attributes { return v.Attrs }
	rep := func(v schema.Replica) schema.Attributes { return v.Attrs }
	ds := func(v schema.Dataset) schema.Attributes { return v.Attrs }
	sections := [][2][]schema.Attributes{
		{attrsOf(want.Datasets, ds), attrsOf(got.Datasets, ds)},
		{attrsOf(want.Derivations, dv), attrsOf(got.Derivations, dv)},
		{attrsOf(want.Invocations, iv), attrsOf(got.Invocations, iv)},
		{attrsOf(want.Replicas, rep), attrsOf(got.Replicas, rep)},
	}
	type run struct{ section, start int }
	owner := map[unsafe.Pointer]run{}
	for s, sec := range sections {
		want, got := sec[0], sec[1]
		start := 0
		for i := range got {
			if i > 0 && !maps.Equal(want[i-1], want[i]) {
				start = i
			}
			if len(got[i]) == 0 {
				if got[i] != nil {
					t.Fatalf("%s: section %d record %d: empty set decoded to a non-nil map", what, s, i)
				}
				continue
			}
			p := reflect.ValueOf(got[i]).UnsafePointer()
			r, seen := owner[p]
			if !seen {
				r = run{s, start}
				owner[p] = r
			}
			if r != (run{s, start}) {
				t.Fatalf("%s: section %d record %d shares the map of section %d's run at %d", what, s, i, r.section, r.start)
			}
			if i > start && reflect.ValueOf(got[i-1]).UnsafePointer() != p {
				t.Fatalf("%s: section %d record %d does not share the map of the equal set before it", what, s, i)
			}
		}
	}
}

func attrsOf[T any](xs []T, attrs func(T) schema.Attributes) []schema.Attributes {
	out := make([]schema.Attributes, len(xs))
	for i, x := range xs {
		out[i] = attrs(x)
	}
	return out
}

// TestDecodeRecordNeverShares: log records decode one at a time, each
// into maps of its own.
func TestDecodeRecordNeverShares(t *testing.T) {
	rec, err := AppendRecord(nil, RecDataset, schema.Dataset{Name: "d", Attrs: schema.Attributes{"tag": "t1"}})
	if err != nil {
		t.Fatal(err)
	}
	_, a, err := DecodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := DecodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.ValueOf(a.(schema.Dataset).Attrs).UnsafePointer() == reflect.ValueOf(b.(schema.Dataset).Attrs).UnsafePointer() {
		t.Fatal("two decodes of one record share an attribute map")
	}
}
