package catalog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"chimera/internal/codec"
)

// Log frames. wal.bin is a sequence of self-checking frames, one per
// logged operation:
//
//	uvarint n | hdr | op | body | crc32c(op‖body), 4 bytes little-endian
//
// op‖body is the binary/v1 record (codec.AppendRecord) and n its
// length, 1 ≤ n < 1<<28, so the uvarint takes k ≤ 4 bytes. hdr checks
// the length before anything trusts it: its top bit is clear, bits 5–6
// hold k-1, and bits 0–4 a CRC-5 of n. A single flipped bit in the
// length is always caught. In a value bit it changes the CRC. A
// continuation bit flipped on makes the uvarint run on through hdr
// (whose clear top bit ends it) and read the record's kind byte, whose
// bits 5–6 are zero, in hdr's place: no match for k ≥ 2. One flipped
// off shortens n, so the frame ends inside itself and its CRC-32C
// fails with bytes still after it. A corrupt length is therefore
// never mistaken for a frame that runs past the end of the log.
//
// Replay reads frames by their declared length, so a record may be as
// large as the frame limit. A frame that fails a check, or runs past
// the end of the log, is a torn tail when nothing but zero bytes
// follows it — the write was never acknowledged, or the file system
// zero-filled what the crash never wrote — and is ignored. A frame
// that fails a check and is followed by anything else is log damage,
// and replay refuses it rather than drop the records after it.

const (
	frameLenMax = 4               // uvarint bytes of n
	maxFrameLen = 1<<(7*4) - 1    // the largest n they hold
	frameHdrMax = frameLenMax + 1 // uvarint + hdr
	frameCRCLen = 4
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// lenCheck is the CRC-5 (polynomial x⁵+x²+1) of the 28 bits of a frame
// length.
func lenCheck(n uint64) byte {
	var c byte
	for i := 27; i >= 0; i-- {
		fb := c>>4&1 ^ byte(n>>i)&1
		c = c << 1 & 0x1f
		if fb != 0 {
			c ^= 0x05
		}
	}
	return c
}

// frameHdr is the check byte for a length n whose uvarint takes k bytes.
func frameHdr(n uint64, k int) byte { return byte(k-1)<<5 | lenCheck(n) }

// appendFrame appends op(v) to dst as one frame. On error dst is
// returned unextended.
func appendFrame(dst []byte, op codec.RecordKind, v any) ([]byte, error) {
	start := len(dst)
	// Encode the record after room for the longest header, then move it
	// down to sit right behind the header it turns out to need.
	buf, err := codec.AppendRecord(append(dst, make([]byte, frameHdrMax)...), op, v)
	if err != nil {
		return dst, err
	}
	n := len(buf) - start - frameHdrMax
	if n > maxFrameLen {
		return dst, fmt.Errorf("record of %d bytes exceeds the %d-byte frame limit", n, maxFrameLen)
	}
	var hdr [frameHdrMax]byte
	k := binary.PutUvarint(hdr[:], uint64(n))
	hdr[k] = frameHdr(uint64(n), k)
	h := k + 1
	copy(buf[start+h:], buf[start+frameHdrMax:])
	copy(buf[start:], hdr[:h])
	buf = buf[:start+h+n]
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[start+h:], castagnoli)), nil
}

var (
	errFrameLen = errors.New("length fails its check")
	errFrameCut = errors.New("frame runs past the end of the log")
	errFrameCRC = errors.New("checksum mismatch")
)

// frameAt parses the frame starting at data[off]. It returns the
// record and the offset just past the frame; when the frame fails,
// end is as far as the frame is known to reach — its declared end, or
// the end of its header when the length itself fails.
func frameAt(data []byte, off int) (rec []byte, end int, err error) {
	win := data[off:min(off+frameLenMax, len(data))]
	n, k := binary.Uvarint(win)
	switch {
	case k == 0 && off+len(win) == len(data):
		return nil, len(data), errFrameCut
	case k <= 0:
		return nil, off + len(win), errFrameLen
	case off+k == len(data):
		return nil, len(data), errFrameCut
	}
	h := off + k
	if n == 0 || data[h] != frameHdr(n, k) {
		return nil, h + 1, errFrameLen
	}
	body := h + 1
	end = body + int(n) + frameCRCLen
	if end > len(data) {
		return nil, end, errFrameCut
	}
	rec = data[body : end-frameCRCLen]
	if crc32.Checksum(rec, castagnoli) != binary.LittleEndian.Uint32(data[end-frameCRCLen:end]) {
		return nil, end, errFrameCRC
	}
	return rec, end, nil
}

// readFrames decodes a binary log's records in order and hands each to
// fn. It returns where the last whole frame ends: len(data), or the
// start of a torn tail. Decoded values do not alias data.
func readFrames(data []byte, fn func(op codec.RecordKind, v any) error) (int, error) {
	off := 0
	for off < len(data) {
		rec, end, err := frameAt(data, off)
		if err != nil {
			if zeros(data[min(end, len(data)):]) {
				return off, nil // torn tail
			}
			return off, fmt.Errorf("catalog: replay: frame at byte %d: %w, and %d byte(s) follow it", off, err, len(data)-end)
		}
		op, v, err := codec.DecodeRecord(rec)
		if err != nil {
			return off, fmt.Errorf("catalog: replay: frame at byte %d: %w", off, err)
		}
		if err := fn(op, v); err != nil {
			return off, fmt.Errorf("catalog: replay: %w", err)
		}
		off = end
	}
	return off, nil
}

// zeros reports whether b holds nothing but zero bytes.
func zeros(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}
