package codec

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"chimera/internal/schema"
)

// binary/v1: a compact catalog format built for the two coldest
// surfaces — snapshot reopen and federation delta transport — where
// the JSON codec is dominated by parse CPU and allocator/GC pressure.
//
// Layout:
//
//	"VDGB" | frame byte ('S' snapshot, 'D' delta) | version byte (1)
//	[delta frames: uvarint instance, since, seq | full byte]
//	section payloads, back to back (no inline headers)
//	index: uvarint n, then per section: kind byte, flags byte,
//	       uvarint offset (from file start), uvarint stored length,
//	       uvarint record count, uvarint raw (pre-compression) length
//	uint32-LE index length | "VDGE"
//
// Sections are located only through the trailing index, so a reader
// mmaps the file, reads the fixed tail, jumps to the index, and then
// decodes sections lazily and in any order — the string table first
// (every interned reference resolves against it), then record
// sections in dependency order regardless of physical position.
// Unknown section kinds are skipped: a newer writer can add sections
// without breaking old readers.
//
// Sections may be individually DEFLATE-compressed (flag bit 0). The
// two frame kinds choose differently: snapshots store raw sections so
// the mmap cold-start path decodes straight out of the page cache with
// zero inflate cost, while deltas — wire bodies, where every byte is
// paid for on the network both ways — compress each section that
// shrinks. The reader handles either transparently; the raw length in
// the index pre-sizes the inflate buffer exactly.
//
// Record sections (datasets, derivations, invocations, replicas,
// tombstones) hold length-prefixed records so a reader can skip or
// lazily decode individual records without parsing their interiors.
// Low-cardinality control-plane sections (the type registry,
// transformations, compat assertions) ride as JSON blobs inside their
// binary frames: they are thousands of times rarer than data-plane
// records, their schemas churn the most, and JSON keeps them
// forward-compatible — the million-object sections are fully binary.
//
// String interning: attribute keys, dataset type names, transformation
// references, sites, hosts and other low-cardinality strings are
// written once into the string table and referenced by varint symbol.
// High-cardinality strings (dataset names, IDs, PFNs) are inlined.
//
// Every decoded value owns its memory — nothing aliases the input
// buffer — so the caller may unmap a memory-mapped input immediately
// after decoding returns.

const (
	binMagic     = "VDGB"
	binEndMagic  = "VDGE"
	binVersion   = 1
	frameSnap    = 'S'
	frameDelta   = 'D'
	binTailLen   = 8 // uint32 index length + end magic
	binHeaderLen = 6 // magic + frame + version
)

// Section kinds.
const (
	secStrings byte = iota + 1
	secTypes
	secDatasets
	secTransformations
	secDerivations
	secInvocations
	secReplicas
	secCompat
	secTombstones
)

// errCorrupt wraps all structural decode failures so callers can
// distinguish "this is not a valid binary/v1 body" from I/O errors.
var errCorrupt = errors.New("codec: corrupt binary data")

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errCorrupt, fmt.Sprintf(format, args...))
}

// maxActualDepth bounds Actual list nesting on decode. Valid schema
// objects never nest lists (schema.Actual.Validate rejects it);
// adversarial input must not be able to recurse the stack dry.
const maxActualDepth = 32

// ---------------------------------------------------------------------------
// Encoder

// encState is the pooled per-encode scratch: the output buffer, the
// intern table, the symbol map, and the section compressor. Pooling
// them means a federation crawl pass or snapshot loop reuses one
// allocation set per goroutine instead of rebuilding multi-megabyte
// buffers (and flate state) per call.
type encState struct {
	buf    []byte
	strs   []string          // intern table in first-use order
	syms   map[string]uint64 // string -> index into strs
	inline bool              // write symbols as inline strings (log records)
	keys   []string          // sortedKeys scratch, reused map after map

	deflate bool          // compress sections (delta frames)
	cbuf    bytes.Buffer  // per-section compression scratch
	fw      *flate.Writer // reused across sections and encodes
}

var encPool = sync.Pool{New: func() any { return &encState{syms: make(map[string]uint64)} }}

// maxPooledEnc caps what returns to the pool: one whale encode must
// not pin its buffer for the life of the process.
const maxPooledEnc = 8 << 20

func getEnc() *encState {
	e := encPool.Get().(*encState)
	e.buf = e.buf[:0]
	e.strs = e.strs[:0]
	e.deflate = false
	clear(e.syms)
	return e
}

func putEnc(e *encState) {
	if cap(e.buf) <= maxPooledEnc && len(e.syms) <= 1<<16 {
		encPool.Put(e)
	}
}

func (e *encState) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *encState) varint(v int64)   { e.buf = binary.AppendVarint(e.buf, v) }
func (e *encState) byte(b byte)      { e.buf = append(e.buf, b) }
func (e *encState) raw(b []byte)     { e.buf = append(e.buf, b...) }

// str inlines a length-prefixed string.
func (e *encState) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// sym writes the intern-table symbol for s, adding it on first use —
// or, in a log record, which has no table, s itself.
func (e *encState) sym(s string) {
	if e.inline {
		e.str(s)
		return
	}
	id, ok := e.syms[s]
	if !ok {
		id = uint64(len(e.strs))
		e.strs = append(e.strs, s)
		e.syms[s] = id
	}
	e.uvarint(id)
}

// blob inlines a length-prefixed byte slice; nil encodes as length 0.
func (e *encState) blob(b []byte) {
	e.uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// timeb encodes a time.Time via its binary marshaling (wall clock +
// zone offset), which round-trips the zero value and sub-second
// precision exactly.
func (e *encState) timeb(t time.Time) error {
	b, err := t.MarshalBinary()
	if err != nil {
		return err
	}
	e.blob(b)
	return nil
}

// attrs encodes a string map with interned keys and inline values,
// sorted so equal inputs produce identical bytes.
func (e *encState) attrs(m map[string]string) {
	e.uvarint(uint64(len(m)))
	for _, k := range e.sortedKeys(m) {
		e.sym(k)
		e.str(m[k])
	}
}

// strmap encodes a string map fully inline (both sides
// high-cardinality), sorted for determinism.
func (e *encState) strmap(m map[string]string) {
	e.uvarint(uint64(len(m)))
	for _, k := range e.sortedKeys(m) {
		e.str(k)
		e.str(m[k])
	}
}

// sortedKeys returns m's keys in order, in e's scratch slice: valid
// until the next call, so a caller ranges them before encoding another
// map.
func (e *encState) sortedKeys(m map[string]string) []string {
	e.keys = appendSortedKeys(e.keys[:0], m)
	return e.keys
}

func appendSortedKeys[V any](dst []string, m map[string]V) []string {
	for k := range m {
		dst = append(dst, k)
	}
	slices.Sort(dst)
	return dst
}

// Section flag bits.
const flagDeflate byte = 1 << 0

// compressMinSection is the size below which compressing a section is
// not worth the flate header and CPU.
const compressMinSection = 256

// section is one entry of the trailing offset index. length is the
// stored (possibly compressed) byte count; rawLen the decoded one.
type section struct {
	kind    byte
	flags   byte
	off     uint64
	length  uint64
	records uint64
	rawLen  uint64
}

// beginSection returns the marker finishSection closes over.
func (e *encState) beginSection() int { return len(e.buf) }

func (e *encState) finishSection(idx *[]section, kind byte, start int, records int) error {
	if len(e.buf) == start && records == 0 && kind != secStrings {
		return nil // empty section: omitted entirely, absence means empty
	}
	s := section{kind: kind, off: uint64(start), length: uint64(len(e.buf) - start), records: uint64(records)}
	s.rawLen = s.length
	if e.deflate && s.rawLen >= compressMinSection {
		e.cbuf.Reset()
		if e.fw == nil {
			// BestSpeed: wire deltas are encoded on every crawl pass, so
			// trade a few percent of ratio for several-fold less CPU.
			fw, err := flate.NewWriter(&e.cbuf, flate.BestSpeed)
			if err != nil {
				return err
			}
			e.fw = fw
		} else {
			e.fw.Reset(&e.cbuf)
		}
		if _, err := e.fw.Write(e.buf[start:]); err != nil {
			return err
		}
		if err := e.fw.Close(); err != nil {
			return err
		}
		if uint64(e.cbuf.Len()) < s.rawLen {
			e.buf = append(e.buf[:start], e.cbuf.Bytes()...)
			s.length = uint64(e.cbuf.Len())
			s.flags |= flagDeflate
		}
	}
	*idx = append(*idx, s)
	return nil
}

func (e *encState) actual(a *schema.Actual) {
	e.uvarint(uint64(a.Kind))
	e.str(a.Value)
	e.sym(a.Direction)
	e.uvarint(uint64(len(a.List)))
	for i := range a.List {
		e.actual(&a.List[i])
	}
}

func (e *encState) dataset(ds *schema.Dataset) error {
	e.str(ds.Name)
	e.sym(ds.Type.Content)
	e.sym(ds.Type.Format)
	e.sym(ds.Type.Encoding)
	desc, err := schema.MarshalDescriptor(ds.Descriptor)
	if err != nil {
		return err
	}
	if string(desc) == "null" {
		e.blob(nil)
	} else {
		e.blob(desc)
	}
	e.str(ds.CreatedBy)
	e.varint(int64(ds.Epoch))
	e.varint(ds.Size)
	e.attrs(ds.Attrs)
	return nil
}

func (e *encState) replica(r *schema.Replica) {
	e.str(r.ID)
	e.str(r.Dataset)
	e.sym(r.Site)
	e.str(r.PFN)
	e.varint(r.Size)
	e.varint(int64(r.Epoch))
	e.str(r.ProducedBy)
	e.attrs(r.Attrs)
}

func (e *encState) derivation(dv *schema.Derivation) {
	e.str(dv.ID)
	e.str(dv.Name)
	e.sym(dv.TR)
	// Params has no omitempty in the JSON form, so nil and empty are
	// distinguishable there; preserve the distinction.
	if dv.Params == nil {
		e.byte(0)
	} else {
		e.byte(1)
		e.uvarint(uint64(len(dv.Params)))
		e.keys = appendSortedKeys(e.keys[:0], dv.Params)
		for _, k := range e.keys {
			a := dv.Params[k]
			e.str(k)
			e.actual(&a)
		}
	}
	e.uvarint(uint64(len(dv.Env)))
	for _, k := range e.sortedKeys(dv.Env) {
		e.sym(k)
		e.str(dv.Env[k])
	}
	e.str(dv.Parent)
	e.attrs(dv.Attrs)
}

func (e *encState) invocation(iv *schema.Invocation) error {
	e.str(iv.ID)
	e.str(iv.Derivation)
	e.sym(iv.Site)
	e.sym(iv.Host)
	if err := e.timeb(iv.Start); err != nil {
		return err
	}
	if err := e.timeb(iv.End); err != nil {
		return err
	}
	e.varint(int64(iv.ExitCode))
	e.sym(iv.OS)
	e.sym(iv.Arch)
	e.uvarint(uint64(len(iv.Env)))
	for _, k := range e.sortedKeys(iv.Env) {
		e.sym(k)
		e.str(iv.Env[k])
	}
	e.varint(iv.BytesIn)
	e.varint(iv.BytesOut)
	e.strmap(iv.UsedReplicas)
	e.strmap(iv.ProducedReplicas)
	e.attrs(iv.Attrs)
	return nil
}

// record frames one record: encode into the tail of the buffer via
// fn, then splice the uvarint length prefix in front of it.
func (e *encState) record(fn func() error) error {
	start := len(e.buf)
	if err := fn(); err != nil {
		e.buf = e.buf[:start]
		return err
	}
	n := len(e.buf) - start
	var pfx [binary.MaxVarintLen64]byte
	pl := binary.PutUvarint(pfx[:], uint64(n))
	e.buf = append(e.buf, pfx[:pl]...)
	copy(e.buf[start+pl:], e.buf[start:start+n])
	copy(e.buf[start:], pfx[:pl])
	return nil
}

// jsonSection appends one JSON-blob section when v is non-empty.
func (e *encState) jsonSection(idx *[]section, kind byte, v any, present bool) error {
	if !present {
		return nil
	}
	start := e.beginSection()
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	e.raw(data)
	return e.finishSection(idx, kind, start, 1)
}

// encodeBody writes the sections + index + tail for either frame kind.
func (e *encState) encodeBody(p *Payload, tombs []Tombstone) error {
	var idx []section

	start := e.beginSection()
	for i := range p.Datasets {
		if err := e.record(func() error { return e.dataset(&p.Datasets[i]) }); err != nil {
			return err
		}
	}
	if err := e.finishSection(&idx, secDatasets, start, len(p.Datasets)); err != nil {
		return err
	}

	start = e.beginSection()
	for i := range p.Derivations {
		if err := e.record(func() error { e.derivation(&p.Derivations[i]); return nil }); err != nil {
			return err
		}
	}
	if err := e.finishSection(&idx, secDerivations, start, len(p.Derivations)); err != nil {
		return err
	}

	start = e.beginSection()
	for i := range p.Invocations {
		if err := e.record(func() error { return e.invocation(&p.Invocations[i]) }); err != nil {
			return err
		}
	}
	if err := e.finishSection(&idx, secInvocations, start, len(p.Invocations)); err != nil {
		return err
	}

	start = e.beginSection()
	for i := range p.Replicas {
		if err := e.record(func() error { e.replica(&p.Replicas[i]); return nil }); err != nil {
			return err
		}
	}
	if err := e.finishSection(&idx, secReplicas, start, len(p.Replicas)); err != nil {
		return err
	}

	start = e.beginSection()
	for i := range tombs {
		if err := e.record(func() error { e.str(tombs[i].Kind); e.str(tombs[i].ID); return nil }); err != nil {
			return err
		}
	}
	if err := e.finishSection(&idx, secTombstones, start, len(tombs)); err != nil {
		return err
	}

	if err := e.jsonSection(&idx, secTypes, p.Types, p.Types != nil); err != nil {
		return err
	}
	if err := e.jsonSection(&idx, secTransformations, p.Transformations, len(p.Transformations) > 0); err != nil {
		return err
	}
	if err := e.jsonSection(&idx, secCompat, p.Compat, len(p.Compat) > 0); err != nil {
		return err
	}

	// The string table is written physically last (it only settles once
	// every record has interned its symbols) but decoded first: readers
	// reach it through the index, not by position.
	start = e.beginSection()
	e.uvarint(uint64(len(e.strs)))
	for _, s := range e.strs {
		e.str(s)
	}
	if err := e.finishSection(&idx, secStrings, start, len(e.strs)); err != nil {
		return err
	}

	idxStart := len(e.buf)
	e.uvarint(uint64(len(idx)))
	for _, s := range idx {
		e.byte(s.kind)
		e.byte(s.flags)
		e.uvarint(s.off)
		e.uvarint(s.length)
		e.uvarint(s.records)
		e.uvarint(s.rawLen)
	}
	idxLen := len(e.buf) - idxStart
	e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(idxLen))
	e.raw([]byte(binEndMagic))
	return nil
}

// EncodeSnapshot writes the binary/v1 snapshot of p to w and observes
// it in the codec metrics.
func EncodeSnapshot(w io.Writer, p *Payload) error {
	defer encSecBin.ObserveSince(time.Now())
	n, err := encodeSnapshot(w, p)
	encBBin.Add(uint64(n))
	return err
}

// EncodeReply writes p to w as the same snapshot frame EncodeSnapshot
// writes, but observes nothing: it serves the many small query
// replies, whose cost shows in the HTTP request latency, and keeps them
// out of the snapshot/delta series of the codec metrics.
func EncodeReply(w io.Writer, p *Payload) error {
	_, err := encodeSnapshot(w, p)
	return err
}

// encodeSnapshot writes the snapshot frame of p to w, returning its
// encoded length.
func encodeSnapshot(w io.Writer, p *Payload) (int, error) {
	e := getEnc()
	defer putEnc(e)
	e.raw([]byte(binMagic))
	e.byte(frameSnap)
	e.byte(binVersion)
	if err := e.encodeBody(p, nil); err != nil {
		return 0, err
	}
	_, err := w.Write(e.buf)
	return len(e.buf), err
}

// EncodeDelta writes the binary/v1 delta frame of d to w.
func EncodeDelta(w io.Writer, d *Delta) error {
	defer encSecBin.ObserveSince(time.Now())
	e := getEnc()
	defer putEnc(e)
	e.deflate = true
	e.raw([]byte(binMagic))
	e.byte(frameDelta)
	e.byte(binVersion)
	e.uvarint(d.Instance)
	e.uvarint(d.Since)
	e.uvarint(d.Seq)
	if d.Full {
		e.byte(1)
	} else {
		e.byte(0)
	}
	if err := e.encodeBody(&d.Export, d.Tombstones); err != nil {
		return err
	}
	encBBin.Add(uint64(len(e.buf)))
	_, err := w.Write(e.buf)
	return err
}

// ---------------------------------------------------------------------------
// Decoder

// dec is a bounds-checked cursor over one section's bytes. Every read
// validates against the remaining input before allocating, so
// truncated, bit-flipped, or adversarial-varint input yields an error
// — never a panic or an attacker-sized allocation.
type dec struct {
	data []byte
	off  int
}

func (d *dec) remaining() int { return len(d.data) - d.off }

func (d *dec) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		return 0, corrupt("bad uvarint at offset %d", d.off)
	}
	d.off += n
	return v, nil
}

func (d *dec) varint() (int64, error) {
	v, n := binary.Varint(d.data[d.off:])
	if n <= 0 {
		return 0, corrupt("bad varint at offset %d", d.off)
	}
	d.off += n
	return v, nil
}

func (d *dec) byte() (byte, error) {
	if d.off >= len(d.data) {
		return 0, corrupt("truncated at offset %d", d.off)
	}
	b := d.data[d.off]
	d.off++
	return b, nil
}

// take returns the next n bytes of the section without copying; the
// caller must copy anything it retains.
func (d *dec) take(n uint64) ([]byte, error) {
	if n > uint64(d.remaining()) {
		return nil, corrupt("length %d exceeds remaining %d at offset %d", n, d.remaining(), d.off)
	}
	b := d.data[d.off : d.off+int(n)]
	d.off += int(n)
	return b, nil
}

// str decodes an inline string, copying it out of the input buffer.
func (d *dec) str() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	b, err := d.take(n)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// count validates a declared element count against the bytes actually
// present: every element occupies at least minBytes, so a count
// implying more input than exists is corrupt — and rejecting it here
// is what keeps make() calls honest.
func (d *dec) count(declared uint64, minBytes int) (int, error) {
	if declared > uint64(d.remaining()/minBytes)+1 {
		return 0, corrupt("count %d exceeds remaining input at offset %d", declared, d.off)
	}
	return int(declared), nil
}

// binReader is the lazy snapshot/delta reader: it parses only the
// header, trailing index and string table up front; record sections
// decode on demand through Section-addressed cursors. The catalog's
// mmap cold-start path is built on this — the file is mapped, sections
// are decoded straight out of the page cache in dependency order, and
// the mapping is dropped as soon as the last section is materialized.
type binReader struct {
	data     []byte
	frame    byte
	sections map[byte]section
	strs     []string
	inline   bool // symbols are inline strings (log records)

	// Delta header fields (frameDelta only).
	instance, since, seq uint64
	full                 bool
}

// openBinary validates framing and loads the index and string table.
func openBinary(data []byte, wantFrame byte) (*binReader, error) {
	if len(data) < binHeaderLen+binTailLen {
		return nil, corrupt("short input (%d bytes)", len(data))
	}
	if string(data[:4]) != binMagic {
		return nil, corrupt("bad magic %q", data[:4])
	}
	r := &binReader{data: data, frame: data[4]}
	if r.frame != frameSnap && r.frame != frameDelta {
		return nil, corrupt("unknown frame kind %q", data[4])
	}
	if wantFrame != 0 && r.frame != wantFrame {
		return nil, corrupt("frame kind %q, want %q", r.frame, wantFrame)
	}
	if data[5] != binVersion {
		return nil, corrupt("unsupported version %d", data[5])
	}
	tail := data[len(data)-binTailLen:]
	if string(tail[4:]) != binEndMagic {
		return nil, corrupt("bad end magic %q", tail[4:])
	}
	idxLen := int(binary.LittleEndian.Uint32(tail[:4]))
	idxEnd := len(data) - binTailLen
	if idxLen > idxEnd-binHeaderLen {
		return nil, corrupt("index length %d exceeds file", idxLen)
	}
	body := dec{data: data[:idxEnd], off: binHeaderLen}
	if r.frame == frameDelta {
		var err error
		if r.instance, err = body.uvarint(); err != nil {
			return nil, err
		}
		if r.since, err = body.uvarint(); err != nil {
			return nil, err
		}
		if r.seq, err = body.uvarint(); err != nil {
			return nil, err
		}
		fb, err := body.byte()
		if err != nil {
			return nil, err
		}
		r.full = fb != 0
	}

	idx := dec{data: data[:idxEnd], off: idxEnd - idxLen}
	n, err := idx.uvarint()
	if err != nil {
		return nil, err
	}
	nsec, err := idx.count(n, 4)
	if err != nil {
		return nil, err
	}
	r.sections = make(map[byte]section, nsec)
	for i := 0; i < nsec; i++ {
		kind, err := idx.byte()
		if err != nil {
			return nil, err
		}
		var s section
		s.kind = kind
		if s.flags, err = idx.byte(); err != nil {
			return nil, err
		}
		if s.off, err = idx.uvarint(); err != nil {
			return nil, err
		}
		if s.length, err = idx.uvarint(); err != nil {
			return nil, err
		}
		if s.records, err = idx.uvarint(); err != nil {
			return nil, err
		}
		if s.rawLen, err = idx.uvarint(); err != nil {
			return nil, err
		}
		if s.off > uint64(idxEnd-idxLen) || s.length > uint64(idxEnd-idxLen)-s.off {
			return nil, corrupt("section %d spans [%d,+%d) outside body", kind, s.off, s.length)
		}
		if _, dup := r.sections[kind]; dup {
			return nil, corrupt("duplicate section %d", kind)
		}
		r.sections[kind] = s
	}

	// The string table decodes eagerly: every other section's symbols
	// resolve against it.
	sd, ok, err := r.section(secStrings)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, corrupt("missing string table")
	}
	cnt, err := sd.uvarint()
	if err != nil {
		return nil, err
	}
	nstr, err := sd.count(cnt, 1)
	if err != nil {
		return nil, err
	}
	r.strs = make([]string, 0, nstr)
	for i := 0; i < nstr; i++ {
		s, err := sd.str()
		if err != nil {
			return nil, err
		}
		r.strs = append(r.strs, s)
	}
	return r, nil
}

// section returns a cursor over one section's decoded bytes; ok is
// false when the section is absent (which means empty). Compressed
// sections inflate into a fresh heap buffer here — allocation tracks
// the bytes actually produced (bounded by rawLen), not any declared
// count, so adversarial indexes cannot force an outsized make.
func (r *binReader) section(kind byte) (dec, bool, error) {
	s, ok := r.sections[kind]
	if !ok {
		return dec{}, false, nil
	}
	stored := r.data[s.off : s.off+s.length]
	if s.flags&flagDeflate == 0 {
		return dec{data: stored}, true, nil
	}
	fr := flate.NewReader(bytes.NewReader(stored))
	var buf bytes.Buffer
	if s.rawLen < 1<<20 {
		buf.Grow(int(s.rawLen))
	}
	n, err := io.Copy(&buf, io.LimitReader(fr, int64(s.rawLen)+1))
	if cerr := fr.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return dec{}, false, corrupt("section %d inflate: %v", kind, err)
	}
	if uint64(n) != s.rawLen {
		return dec{}, false, corrupt("section %d inflated to %d bytes, index says %d", kind, n, s.rawLen)
	}
	return dec{data: buf.Bytes()}, true, nil
}

func (r *binReader) records(kind byte) int {
	if s, ok := r.sections[kind]; ok {
		return int(s.records)
	}
	return 0
}

// sym resolves an interned symbol. The returned string is shared with
// the reader's table — itself copied out of the input — so repeated
// keys and names across millions of records cost one allocation each.
func (r *binReader) sym(d *dec) (string, error) {
	if r.inline {
		return d.str()
	}
	id, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if id >= uint64(len(r.strs)) {
		return "", corrupt("symbol %d out of range (%d strings)", id, len(r.strs))
	}
	return r.strs[id], nil
}

func (r *binReader) attrs(d *dec) (schema.Attributes, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	cnt, err := d.count(n, 2)
	if err != nil || cnt == 0 {
		return nil, err
	}
	m := make(schema.Attributes, cnt)
	for i := 0; i < cnt; i++ {
		k, err := r.sym(d)
		if err != nil {
			return nil, err
		}
		v, err := d.str()
		if err != nil {
			return nil, err
		}
		m[k] = v
	}
	return m, nil
}

func (r *binReader) symmap(d *dec) (map[string]string, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	cnt, err := d.count(n, 2)
	if err != nil || cnt == 0 {
		return nil, err
	}
	m := make(map[string]string, cnt)
	for i := 0; i < cnt; i++ {
		k, err := r.sym(d)
		if err != nil {
			return nil, err
		}
		v, err := d.str()
		if err != nil {
			return nil, err
		}
		m[k] = v
	}
	return m, nil
}

func (r *binReader) strmap(d *dec) (map[string]string, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	cnt, err := d.count(n, 2)
	if err != nil || cnt == 0 {
		return nil, err
	}
	m := make(map[string]string, cnt)
	for i := 0; i < cnt; i++ {
		k, err := d.str()
		if err != nil {
			return nil, err
		}
		v, err := d.str()
		if err != nil {
			return nil, err
		}
		m[k] = v
	}
	return m, nil
}

func (r *binReader) timeb(d *dec) (time.Time, error) {
	n, err := d.uvarint()
	if err != nil {
		return time.Time{}, err
	}
	b, err := d.take(n)
	if err != nil {
		return time.Time{}, err
	}
	var t time.Time
	if err := t.UnmarshalBinary(b); err != nil {
		return time.Time{}, corrupt("time: %v", err)
	}
	return t, nil
}

func (r *binReader) actual(d *dec, depth int) (schema.Actual, error) {
	var a schema.Actual
	if depth > maxActualDepth {
		return a, corrupt("actual nesting exceeds %d", maxActualDepth)
	}
	k, err := d.uvarint()
	if err != nil {
		return a, err
	}
	a.Kind = schema.ActualKind(k)
	if a.Value, err = d.str(); err != nil {
		return a, err
	}
	if a.Direction, err = r.sym(d); err != nil {
		return a, err
	}
	n, err := d.uvarint()
	if err != nil {
		return a, err
	}
	cnt, err := d.count(n, 3)
	if err != nil {
		return a, err
	}
	if cnt > 0 {
		a.List = make([]schema.Actual, 0, cnt)
		for i := 0; i < cnt; i++ {
			el, err := r.actual(d, depth+1)
			if err != nil {
				return a, err
			}
			a.List = append(a.List, el)
		}
	}
	return a, nil
}

// next frames the following record and returns a cursor bounded to it.
func (d *dec) next() (dec, error) {
	n, err := d.uvarint()
	if err != nil {
		return dec{}, err
	}
	b, err := d.take(n)
	if err != nil {
		return dec{}, err
	}
	return dec{data: b}, nil
}

// decodeSection decodes every length-prefixed record of one section
// with one; an absent section is empty.
func decodeSection[T any](r *binReader, kind byte, one func(*dec) (T, error)) ([]T, error) {
	d, ok, err := r.section(kind)
	if err != nil || !ok {
		return nil, err
	}
	cnt, err := d.count(uint64(r.records(kind)), 1)
	if err != nil {
		return nil, err
	}
	out := make([]T, 0, cnt)
	for d.remaining() > 0 {
		rec, err := d.next()
		if err != nil {
			return nil, err
		}
		v, err := one(&rec)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func (r *binReader) dataset(rec *dec) (schema.Dataset, error) {
	var ds schema.Dataset
	var err error
	if ds.Name, err = rec.str(); err != nil {
		return ds, err
	}
	if ds.Type.Content, err = r.sym(rec); err != nil {
		return ds, err
	}
	if ds.Type.Format, err = r.sym(rec); err != nil {
		return ds, err
	}
	if ds.Type.Encoding, err = r.sym(rec); err != nil {
		return ds, err
	}
	dn, err := rec.uvarint()
	if err != nil {
		return ds, err
	}
	if dn > 0 {
		raw, err := rec.take(dn)
		if err != nil {
			return ds, err
		}
		desc, err := schema.UnmarshalDescriptor(raw)
		if err != nil {
			return ds, corrupt("descriptor: %v", err)
		}
		ds.Descriptor = desc
	}
	if ds.CreatedBy, err = rec.str(); err != nil {
		return ds, err
	}
	epoch, err := rec.varint()
	if err != nil {
		return ds, err
	}
	ds.Epoch = int(epoch)
	if ds.Size, err = rec.varint(); err != nil {
		return ds, err
	}
	ds.Attrs, err = r.attrs(rec)
	return ds, err
}

func (r *binReader) replica(rec *dec) (schema.Replica, error) {
	var rep schema.Replica
	var err error
	if rep.ID, err = rec.str(); err != nil {
		return rep, err
	}
	if rep.Dataset, err = rec.str(); err != nil {
		return rep, err
	}
	if rep.Site, err = r.sym(rec); err != nil {
		return rep, err
	}
	if rep.PFN, err = rec.str(); err != nil {
		return rep, err
	}
	if rep.Size, err = rec.varint(); err != nil {
		return rep, err
	}
	epoch, err := rec.varint()
	if err != nil {
		return rep, err
	}
	rep.Epoch = int(epoch)
	if rep.ProducedBy, err = rec.str(); err != nil {
		return rep, err
	}
	rep.Attrs, err = r.attrs(rec)
	return rep, err
}

func (r *binReader) derivation(rec *dec) (schema.Derivation, error) {
	var dv schema.Derivation
	var err error
	if dv.ID, err = rec.str(); err != nil {
		return dv, err
	}
	if dv.Name, err = rec.str(); err != nil {
		return dv, err
	}
	if dv.TR, err = r.sym(rec); err != nil {
		return dv, err
	}
	present, err := rec.byte()
	if err != nil {
		return dv, err
	}
	if present != 0 {
		n, err := rec.uvarint()
		if err != nil {
			return dv, err
		}
		pcnt, err := rec.count(n, 2)
		if err != nil {
			return dv, err
		}
		dv.Params = make(map[string]schema.Actual, pcnt)
		for i := 0; i < pcnt; i++ {
			k, err := rec.str()
			if err != nil {
				return dv, err
			}
			a, err := r.actual(rec, 0)
			if err != nil {
				return dv, err
			}
			dv.Params[k] = a
		}
	}
	if dv.Env, err = r.symmap(rec); err != nil {
		return dv, err
	}
	if dv.Parent, err = rec.str(); err != nil {
		return dv, err
	}
	dv.Attrs, err = r.attrs(rec)
	return dv, err
}

func (r *binReader) invocation(rec *dec) (schema.Invocation, error) {
	var iv schema.Invocation
	var err error
	if iv.ID, err = rec.str(); err != nil {
		return iv, err
	}
	if iv.Derivation, err = rec.str(); err != nil {
		return iv, err
	}
	if iv.Site, err = r.sym(rec); err != nil {
		return iv, err
	}
	if iv.Host, err = r.sym(rec); err != nil {
		return iv, err
	}
	if iv.Start, err = r.timeb(rec); err != nil {
		return iv, err
	}
	if iv.End, err = r.timeb(rec); err != nil {
		return iv, err
	}
	ec, err := rec.varint()
	if err != nil {
		return iv, err
	}
	iv.ExitCode = int(ec)
	if iv.OS, err = r.sym(rec); err != nil {
		return iv, err
	}
	if iv.Arch, err = r.sym(rec); err != nil {
		return iv, err
	}
	if iv.Env, err = r.symmap(rec); err != nil {
		return iv, err
	}
	if iv.BytesIn, err = rec.varint(); err != nil {
		return iv, err
	}
	if iv.BytesOut, err = rec.varint(); err != nil {
		return iv, err
	}
	if iv.UsedReplicas, err = r.strmap(rec); err != nil {
		return iv, err
	}
	if iv.ProducedReplicas, err = r.strmap(rec); err != nil {
		return iv, err
	}
	iv.Attrs, err = r.attrs(rec)
	return iv, err
}

func tombstone(rec *dec) (Tombstone, error) {
	var t Tombstone
	var err error
	if t.Kind, err = rec.str(); err != nil {
		return t, err
	}
	t.ID, err = rec.str()
	return t, err
}

// decodeJSONSection unmarshals a JSON-blob section into v.
func (r *binReader) decodeJSONSection(kind byte, v any) (bool, error) {
	d, ok, err := r.section(kind)
	if err != nil {
		return false, err
	}
	if !ok {
		return false, nil
	}
	if err := json.Unmarshal(d.data, v); err != nil {
		return false, corrupt("section %d json: %v", kind, err)
	}
	return true, nil
}

// payload materializes every section.
func (r *binReader) payload() (*Payload, error) {
	p := new(Payload)
	var err error
	if _, err = r.decodeJSONSection(secTypes, &p.Types); err != nil {
		return nil, err
	}
	if _, err = r.decodeJSONSection(secTransformations, &p.Transformations); err != nil {
		return nil, err
	}
	if _, err = r.decodeJSONSection(secCompat, &p.Compat); err != nil {
		return nil, err
	}
	if p.Datasets, err = decodeSection(r, secDatasets, r.dataset); err != nil {
		return nil, err
	}
	if p.Derivations, err = decodeSection(r, secDerivations, r.derivation); err != nil {
		return nil, err
	}
	if p.Invocations, err = decodeSection(r, secInvocations, r.invocation); err != nil {
		return nil, err
	}
	if p.Replicas, err = decodeSection(r, secReplicas, r.replica); err != nil {
		return nil, err
	}
	return p, nil
}

// DecodeSnapshot parses a binary/v1 snapshot and observes it in the
// codec metrics. The returned payload owns all of its memory.
func DecodeSnapshot(data []byte) (*Payload, error) {
	defer decSecBin.ObserveSince(time.Now())
	decBBin.Add(uint64(len(data)))
	return DecodeReply(data)
}

// DecodeReply parses a snapshot frame, as DecodeSnapshot does, but
// observes nothing; it reads what EncodeReply writes.
func DecodeReply(data []byte) (*Payload, error) {
	r, err := openBinary(data, frameSnap)
	if err != nil {
		return nil, err
	}
	return r.payload()
}

// DecodeDelta parses a binary/v1 delta frame. The returned delta owns
// all of its memory.
func DecodeDelta(data []byte) (*Delta, error) {
	defer decSecBin.ObserveSince(time.Now())
	decBBin.Add(uint64(len(data)))
	r, err := openBinary(data, frameDelta)
	if err != nil {
		return nil, err
	}
	p, err := r.payload()
	if err != nil {
		return nil, err
	}
	d := &Delta{Instance: r.instance, Since: r.since, Seq: r.seq, Full: r.full, Export: *p}
	if d.Tombstones, err = decodeSection(r, secTombstones, tombstone); err != nil {
		return nil, err
	}
	return d, nil
}

// binaryCodec is binary/v1 behind the deprecated Codec interface.
type binaryCodec struct{}

func (binaryCodec) EncodeSnapshot(w io.Writer, p *Payload) error { return EncodeSnapshot(w, p) }
func (binaryCodec) DecodeSnapshot(data []byte) (*Payload, error) { return DecodeSnapshot(data) }
func (binaryCodec) EncodeDelta(w io.Writer, d *Delta) error      { return EncodeDelta(w, d) }
func (binaryCodec) DecodeDelta(data []byte) (*Delta, error)      { return DecodeDelta(data) }
