// Package wire implements the binary message formats of the distributed
// string sorters: variable-length integers, plain string-set serialization,
// and the LCP-compressed exchange format of Step 3 of Algorithm MS
// (Section V-B of the paper). LCP compression transmits, for each string
// after the first of a run, only the length of the common prefix with the
// previous string and the remaining characters.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// Errors returned by the decoders.
var (
	ErrTruncated = errors.New("wire: truncated message")
	ErrCorrupt   = errors.New("wire: corrupt message")
)

// Buffer is an append-only encoder for wire messages.
type Buffer struct {
	b []byte
}

// NewBuffer returns a Buffer with the given initial capacity.
func NewBuffer(capacity int) *Buffer {
	return &Buffer{b: make([]byte, 0, capacity)}
}

// Bytes returns the encoded message. The returned slice aliases the
// buffer's storage.
func (w *Buffer) Bytes() []byte { return w.b }

// Len returns the current encoded length in bytes.
func (w *Buffer) Len() int { return len(w.b) }

// Uvarint appends an unsigned varint.
func (w *Buffer) Uvarint(v uint64) {
	w.b = binary.AppendUvarint(w.b, v)
}

// Uint64 appends a fixed-width little-endian 64-bit value.
func (w *Buffer) Uint64(v uint64) {
	w.b = binary.LittleEndian.AppendUint64(w.b, v)
}

// Raw appends raw bytes without a length prefix.
func (w *Buffer) Raw(p []byte) {
	w.b = append(w.b, p...)
}

// Bytes16 appends a length-prefixed byte string.
func (w *Buffer) BytesPrefixed(p []byte) {
	w.Uvarint(uint64(len(p)))
	w.Raw(p)
}

// Reader decodes wire messages produced by Buffer.
type Reader struct {
	b   []byte
	pos int
}

// NewReader returns a Reader over the given message.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Remaining reports how many bytes are left to decode.
func (r *Reader) Remaining() int { return len(r.b) - r.pos }

// Uvarint decodes an unsigned varint.
func (r *Reader) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		return 0, ErrTruncated
	}
	r.pos += n
	return v, nil
}

// Uint64 decodes a fixed-width little-endian 64-bit value.
func (r *Reader) Uint64() (uint64, error) {
	if r.Remaining() < 8 {
		return 0, ErrTruncated
	}
	v := binary.LittleEndian.Uint64(r.b[r.pos:])
	r.pos += 8
	return v, nil
}

// Raw returns the next n bytes without copying.
func (r *Reader) Raw(n int) ([]byte, error) {
	if n < 0 || r.Remaining() < n {
		return nil, ErrTruncated
	}
	p := r.b[r.pos : r.pos+n]
	r.pos += n
	return p, nil
}

// BytesPrefixed decodes a length-prefixed byte string without copying.
func (r *Reader) BytesPrefixed() ([]byte, error) {
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.Remaining()) {
		return nil, ErrTruncated
	}
	return r.Raw(int(n))
}

// UvarintLen returns the encoded size of v in bytes.
func UvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// StringsSize returns the exact encoded size of EncodeStrings(ss).
func StringsSize(ss [][]byte) int {
	total := UvarintLen(uint64(len(ss)))
	for _, s := range ss {
		total += UvarintLen(uint64(len(s))) + len(s)
	}
	return total
}

// EncodeStrings serializes a string set without LCP compression:
// count, then length-prefixed strings. This is the exchange format of
// MS-simple and FKmerge.
func EncodeStrings(ss [][]byte) []byte {
	return AppendStrings(make([]byte, 0, StringsSize(ss)), ss)
}

// AppendStrings appends the EncodeStrings encoding of ss to dst and
// returns the extended slice, letting callers serialize many runs into one
// pre-sized arena with O(1) allocations.
func AppendStrings(dst []byte, ss [][]byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	return dst
}

// DecodeStrings reverses EncodeStrings. The returned strings are copies and
// do not alias the message buffer beyond a single backing array.
func DecodeStrings(msg []byte) ([][]byte, error) {
	r := NewReader(msg)
	cnt, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if cnt > uint64(len(msg)) {
		return nil, ErrCorrupt
	}
	out := make([][]byte, 0, cnt)
	// Single backing array for cache friendliness.
	backing := make([]byte, 0, r.Remaining())
	for i := uint64(0); i < cnt; i++ {
		s, err := r.BytesPrefixed()
		if err != nil {
			return nil, err
		}
		off := len(backing)
		backing = append(backing, s...)
		out = append(out, backing[off:off+len(s):off+len(s)])
	}
	return out, nil
}

// EncodeStringsLCP serializes a sorted run of strings with LCP compression:
// count, then for each string the LCP with the previous string of the run
// and only the remaining suffix characters. lcps[i] must be
// LCP(ss[i-1], ss[i]); lcps[0] is ignored (the first string is always sent
// in full). This is the Step 3 exchange format of Algorithm MS with LCP
// compression and of PDMS.
func EncodeStringsLCP(ss [][]byte, lcps []int32) []byte {
	return AppendStringsLCP(make([]byte, 0, StringsLCPSize(ss, lcps)), ss, lcps)
}

// StringsLCPSize returns the exact encoded size of EncodeStringsLCP.
func StringsLCPSize(ss [][]byte, lcps []int32) int {
	total := UvarintLen(uint64(len(ss)))
	for i, s := range ss {
		h := 0
		if i > 0 {
			h = int(lcps[i])
		}
		total += UvarintLen(uint64(h)) + UvarintLen(uint64(len(s)-h)) + len(s) - h
	}
	return total
}

// AppendStringsLCP appends the EncodeStringsLCP encoding to dst and
// returns the extended slice (see AppendStrings). lcps[0] is ignored: the
// first string of a run always travels in full, so callers can pass a
// sub-slice of a larger LCP array without zeroing its boundary entry.
func AppendStringsLCP(dst []byte, ss [][]byte, lcps []int32) []byte {
	if len(ss) != len(lcps) && len(ss) > 0 {
		panic(fmt.Sprintf("wire: %d strings but %d lcps", len(ss), len(lcps)))
	}
	dst = binary.AppendUvarint(dst, uint64(len(ss)))
	for i, s := range ss {
		h := 0
		if i > 0 {
			h = int(lcps[i])
			if h > len(s) {
				panic(fmt.Sprintf("wire: lcp %d exceeds string length %d", h, len(s)))
			}
		}
		dst = binary.AppendUvarint(dst, uint64(h))
		dst = binary.AppendUvarint(dst, uint64(len(s)-h))
		dst = append(dst, s[h:]...)
	}
	return dst
}

// DecodeStringsLCP reverses EncodeStringsLCP, rematerializing full strings
// by copying the shared prefix from the previously decoded string. It
// returns the strings and the LCP array of the run (lcps[0] == 0).
//
// The decode is flat-arena: a first pass over the varints computes the
// exact total character count, then all strings are materialized as
// sub-slices of one contiguous backing buffer — three allocations per
// message instead of one per string, and the merged runs stay contiguous
// in memory for the Step 4 merge.
func DecodeStringsLCP(msg []byte) ([][]byte, []int32, error) {
	r := NewReader(msg)
	cnt, err := r.Uvarint()
	if err != nil {
		return nil, nil, err
	}
	if cnt > uint64(len(msg))+1 {
		return nil, nil, ErrCorrupt
	}
	// Pass 1: validate the structure and size the arena.
	sizing := *r
	total := 0
	prevLen := 0
	for i := uint64(0); i < cnt; i++ {
		h64, err := sizing.Uvarint()
		if err != nil {
			return nil, nil, err
		}
		n64, err := sizing.Uvarint()
		if err != nil {
			return nil, nil, err
		}
		if _, err := sizing.Raw(int(n64)); err != nil {
			return nil, nil, err
		}
		h := int(h64)
		if (i == 0 && h != 0) || h > prevLen {
			return nil, nil, ErrCorrupt
		}
		prevLen = h + int(n64)
		total += prevLen
	}
	// Pass 2: materialize into the arena.
	ss := make([][]byte, 0, cnt)
	lcps := make([]int32, 0, cnt)
	arena := make([]byte, 0, total)
	var prev []byte
	for i := uint64(0); i < cnt; i++ {
		h64, _ := r.Uvarint()
		h := int(h64)
		suffix, _ := r.BytesPrefixed()
		off := len(arena)
		arena = append(arena, prev[:h]...)
		arena = append(arena, suffix...)
		end := len(arena)
		s := arena[off:end:end]
		ss = append(ss, s)
		lcps = append(lcps, int32(h))
		prev = s
	}
	if len(lcps) > 0 {
		lcps[0] = 0
	}
	return ss, lcps, nil
}

// EncodeUint64s serializes a uint64 slice as varints.
func EncodeUint64s(vs []uint64) []byte {
	w := NewBuffer(len(vs)*4 + 8)
	w.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		w.Uvarint(v)
	}
	return w.Bytes()
}

// DecodeUint64s reverses EncodeUint64s.
func DecodeUint64s(msg []byte) ([]uint64, error) {
	r := NewReader(msg)
	cnt, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if cnt > uint64(len(msg))+1 {
		return nil, ErrCorrupt
	}
	out := make([]uint64, 0, cnt)
	for i := uint64(0); i < cnt; i++ {
		v, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// EncodeUint64sFixed serializes a uint64 slice with fixed 8-byte values,
// the uncompressed fingerprint exchange format (PDMS without Golomb coding).
func EncodeUint64sFixed(vs []uint64) []byte {
	w := NewBuffer(len(vs)*8 + 8)
	w.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		w.Uint64(v)
	}
	return w.Bytes()
}

// DecodeUint64sFixed reverses EncodeUint64sFixed.
func DecodeUint64sFixed(msg []byte) ([]uint64, error) {
	r := NewReader(msg)
	cnt, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if cnt*8 > uint64(len(msg))+8 {
		return nil, ErrCorrupt
	}
	out := make([]uint64, 0, cnt)
	for i := uint64(0); i < cnt; i++ {
		v, err := r.Uint64()
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// EncodeUint32sFixed serializes values (each < 2^32) with fixed 4-byte
// little-endian encoding — the short-fingerprint exchange format of the
// two-level duplicate detection.
func EncodeUint32sFixed(vs []uint64) []byte {
	w := NewBuffer(len(vs)*4 + 8)
	w.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		if v > 0xFFFFFFFF {
			panic("wire: value exceeds 32 bits")
		}
		w.b = append(w.b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return w.Bytes()
}

// DecodeUint32sFixed reverses EncodeUint32sFixed.
func DecodeUint32sFixed(msg []byte) ([]uint64, error) {
	r := NewReader(msg)
	cnt, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if cnt*4 > uint64(len(msg))+4 {
		return nil, ErrCorrupt
	}
	out := make([]uint64, 0, cnt)
	for i := uint64(0); i < cnt; i++ {
		raw, err := r.Raw(4)
		if err != nil {
			return nil, err
		}
		out = append(out, uint64(raw[0])|uint64(raw[1])<<8|uint64(raw[2])<<16|uint64(raw[3])<<24)
	}
	return out, nil
}

// EncodeBitset packs booleans into a bitset message.
func EncodeBitset(bs []bool) []byte {
	w := NewBuffer(len(bs)/8 + 10)
	w.Uvarint(uint64(len(bs)))
	var cur byte
	nbits := 0
	for _, b := range bs {
		if b {
			cur |= 1 << uint(nbits)
		}
		nbits++
		if nbits == 8 {
			w.Raw([]byte{cur})
			cur, nbits = 0, 0
		}
	}
	if nbits > 0 {
		w.Raw([]byte{cur})
	}
	return w.Bytes()
}

// DecodeBitset reverses EncodeBitset.
func DecodeBitset(msg []byte) ([]bool, error) {
	r := NewReader(msg)
	cnt, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	nbytes := int((cnt + 7) / 8)
	raw, err := r.Raw(nbytes)
	if err != nil {
		return nil, err
	}
	out := make([]bool, cnt)
	for i := range out {
		out[i] = raw[i/8]&(1<<uint(i%8)) != 0
	}
	return out, nil
}
