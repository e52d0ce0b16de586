// Package wire implements the length-prefixed binary framing and the
// primitive codec the TCP RTI transport speaks. Frames are a 4-byte
// big-endian length followed by the payload; payloads are built from
// fixed-width integers, IEEE-754 floats, length-prefixed strings and byte
// slices, and string-keyed value maps — all encoded with encoding/binary,
// no reflection.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
)

// MaxFrameSize bounds a frame payload; oversized frames indicate a
// corrupt or malicious peer.
const MaxFrameSize = 16 << 20

// Errors returned by the codec.
var (
	// ErrFrameTooLarge is returned for frames exceeding MaxFrameSize.
	ErrFrameTooLarge = errors.New("wire: frame too large")
	// ErrShortBuffer is returned when decoding runs past the payload.
	ErrShortBuffer = errors.New("wire: short buffer")
	// ErrMalformed is returned for a payload whose fields are in range
	// but not a valid message: a run count of 0, or bytes left after
	// the last field.
	ErrMalformed = errors.New("wire: malformed payload")
)

// WriteFrame writes one length-prefixed frame.
func WriteFrame(w io.Writer, payload []byte) error {
	return WriteFrameTC(w, payload, TraceContext{})
}

// ReadFrame reads one length-prefixed frame. Traced frames (see
// trace.go) are accepted and their context dropped, so readers that
// never look at trace contexts still interoperate with traced senders.
func ReadFrame(r io.Reader) ([]byte, error) {
	payload, _, err := ReadFrameTC(r)
	return payload, err
}

// Encoder builds a frame payload. The zero value is ready to use.
type Encoder struct {
	buf []byte
}

// Bytes returns the encoded payload.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the length of the encoded payload.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset clears the encoder for reuse.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// PutByte appends one byte.
func (e *Encoder) PutByte(b byte) { e.buf = append(e.buf, b) }

// PutUint64 appends a big-endian uint64.
func (e *Encoder) PutUint64(v uint64) {
	e.buf = binary.BigEndian.AppendUint64(e.buf, v)
}

// PutInt64 appends a big-endian int64.
func (e *Encoder) PutInt64(v int64) { e.PutUint64(uint64(v)) }

// PutFloat64 appends an IEEE-754 float64.
func (e *Encoder) PutFloat64(v float64) { e.PutUint64(math.Float64bits(v)) }

// PutBytes appends a length-prefixed byte slice.
func (e *Encoder) PutBytes(b []byte) { e.buf = appendPrefixed(e.buf, b) }

// PutString appends a length-prefixed string.
func (e *Encoder) PutString(s string) { e.buf = appendPrefixed(e.buf, s) }

// appendPrefixed appends b after its 4-byte big-endian length.
func appendPrefixed[B string | []byte](dst []byte, b B) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(b)))
	return append(dst, b...)
}

// PutValues appends a string-keyed byte-slice map in sorted key order,
// so equal maps encode identically (see AppendValues).
func (e *Encoder) PutValues(v map[string][]byte) { e.buf = AppendValues(e.buf, v) }

// PutCount appends the count of a run (Decoder.Count).
func (e *Encoder) PutCount(n int) {
	e.buf = binary.BigEndian.AppendUint32(e.buf, uint32(n))
}

// SetCount rewrites the count PutCount appended at offset off, for a
// run whose length is known only once it closes.
func (e *Encoder) SetCount(off, n int) {
	binary.BigEndian.PutUint32(e.buf[off:], uint32(n))
}

// PutRaw appends b as it is: bytes already in wire form, such as a
// values block (ValuesBlock).
func (e *Encoder) PutRaw(b []byte) { e.buf = append(e.buf, b...) }

// AppendValues appends PutValues' encoding of v to dst: the entry
// count, then each key and value, length-prefixed, in strictly
// ascending key order. The entries are collected and sorted in one
// pass, on the stack for maps of up to eight keys.
func AppendValues(dst []byte, v map[string][]byte) []byte {
	type entry struct {
		k string
		b []byte
	}
	var small [8]entry
	kv := small[:0]
	if len(v) > len(small) {
		kv = make([]entry, 0, len(v))
	}
	for k, b := range v {
		kv = append(kv, entry{k, b})
	}
	slices.SortFunc(kv, func(a, b entry) int { return strings.Compare(a.k, b.k) })
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(kv)))
	for _, e := range kv {
		dst = appendPrefixed(dst, e.k)
		dst = appendPrefixed(dst, e.b)
	}
	return dst
}

// ValuesSize returns the length of PutValues' encoding of v.
func ValuesSize(v map[string][]byte) int {
	n := 4
	for k, b := range v {
		n += 8 + len(k) + len(b)
	}
	return n
}

// Decoder reads a frame payload with a sticky error: after the first
// failure every further read returns the zero value and Err reports the
// failure.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps a payload.
func NewDecoder(payload []byte) *Decoder { return &Decoder{buf: payload} }

// Err returns the first decoding error, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of undecoded bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) fail() { d.failWith(ErrShortBuffer) }

func (d *Decoder) failWith(err error) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: offset %d of %d", err, d.off, len(d.buf))
	}
}

// end checks that the payload is decoded to its end: bytes left over
// are an ErrMalformed decoding error.
func (d *Decoder) end() {
	if d.err == nil && d.Remaining() != 0 {
		d.failWith(ErrMalformed)
	}
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.buf) {
		d.fail()
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// Byte reads one byte.
func (d *Decoder) Byte() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Uint64 reads a big-endian uint64.
func (d *Decoder) Uint64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// Int64 reads a big-endian int64.
func (d *Decoder) Int64() int64 { return int64(d.Uint64()) }

// Float64 reads an IEEE-754 float64.
func (d *Decoder) Float64() float64 { return math.Float64frombits(d.Uint64()) }

// length reads a 4-byte length and bounds-checks it against the
// remaining payload.
func (d *Decoder) length() int {
	b := d.take(4)
	if b == nil {
		return 0
	}
	n := int(binary.BigEndian.Uint32(b))
	if n > d.Remaining() {
		d.fail()
		return 0
	}
	return n
}

// Bytes reads a length-prefixed byte slice. The result is a copy.
func (d *Decoder) Bytes() []byte {
	b := d.view()
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// String reads a length-prefixed string.
func (d *Decoder) String() string { return string(d.view()) }

// view reads a length-prefixed byte slice without copying it: the
// result aliases the payload.
func (d *Decoder) view() []byte {
	n := d.length()
	if d.err != nil {
		return nil
	}
	return d.take(n)
}

// Values reads a string-keyed byte-slice map.
func (d *Decoder) Values() map[string][]byte {
	n := d.length()
	if d.err != nil {
		return nil
	}
	// Every entry carries at least two 4-byte lengths, so the remainder
	// caps the capacity hint whatever the count claims.
	out := make(map[string][]byte, min(n, d.Remaining()/8))
	for i := 0; i < n; i++ {
		k := d.String()
		v := d.Bytes()
		if d.err != nil {
			return nil
		}
		out[k] = v
	}
	return out
}

// Name reads a length-prefixed string through the intern table names,
// so a name the connection has seen before costs no allocation. A nil
// table reads like String.
func (d *Decoder) Name(names *Interner) string {
	b := d.view()
	if names == nil {
		return string(b)
	}
	return names.intern(b)
}

// OwnValues reads a string-keyed byte-slice map for a caller to own,
// with keys through the intern table names (nil: none). It allocates
// the map and one backing array that every value shares, each value
// capped at its own length so an append to one never overwrites the
// next. It is nil on a decoding error.
func (d *Decoder) OwnValues(names *Interner) map[string][]byte {
	// A first pass checks the entries and sums the value bytes, so the
	// second allocates the map and the array once, at their final size.
	start := d.off
	size := d.skipValues()
	if d.err != nil {
		return nil
	}
	d.off = start
	back := make([]byte, 0, size)
	return d.ownValues(names, &back)
}

// Count reads the count of a run, whose elements (values blocks) take
// at least 4 bytes each. A count of 0 is an ErrMalformed error, and a
// count the remaining bytes cannot hold an ErrShortBuffer error, so a
// count is never trusted beyond the payload behind it. It is 0 on a
// decoding error.
func (d *Decoder) Count() int {
	b := d.take(4)
	if b == nil {
		return 0
	}
	n := int(binary.BigEndian.Uint32(b))
	switch {
	case n == 0:
		d.failWith(ErrMalformed)
	case n > d.Remaining()/4:
		d.fail()
	default:
		return n
	}
	return 0
}

// OwnValuesRun reads the n values blocks of a run, after its count
// (Count), which must end the payload, and hands them to each
// in order, as maps for the caller to own with keys through the intern
// table names (nil: none). All the values of the n maps share one new
// backing array, each capped at its own length so an append to one
// never overwrites the next. Every block is checked before the first is
// handed over, so on a decoding error none is and Err reports it.
func (d *Decoder) OwnValuesRun(n int, names *Interner, each func(map[string][]byte)) {
	start := d.off
	size := 0
	for i := 0; i < n && d.err == nil; i++ {
		size += d.skipValues()
	}
	d.end()
	if d.err != nil {
		return
	}
	d.off = start
	back := make([]byte, 0, size)
	for range n {
		each(d.ownValues(names, &back))
	}
}

// skipValues reads past one values block and returns the sum of its
// value lengths.
func (d *Decoder) skipValues() int {
	n := d.length()
	size := 0
	for i := 0; i < n && d.err == nil; i++ {
		d.view()
		size += len(d.view())
	}
	return size
}

// ownValues decodes a values block that skipValues has checked, copying
// its values onto the end of *back, which has the room.
func (d *Decoder) ownValues(names *Interner, back *[]byte) map[string][]byte {
	n := d.length()
	out := make(map[string][]byte, n)
	for range n {
		k := d.Name(names)
		i := len(*back)
		*back = append(*back, d.view()...)
		out[k] = (*back)[i:len(*back):len(*back)]
	}
	return out
}

// BorrowValues reads a string-keyed byte-slice map into dst, which it
// clears first, with keys through the intern table names (nil: none).
// The values are not copied: they alias the payload, so they are valid
// only until the payload's buffer is reused and must not be modified.
// On a decoding error dst is left cleared and Err reports it.
func (d *Decoder) BorrowValues(dst map[string][]byte, names *Interner) {
	clear(dst)
	n := d.length()
	for i := 0; i < n && d.err == nil; i++ {
		k := d.Name(names)
		v := d.view()
		if d.err == nil {
			dst[k] = v
		}
	}
	if d.err != nil {
		clear(dst)
	}
}

// ValuesBlock reads a string-keyed byte-slice map as its raw wire
// bytes, the entry count included, when its keys are strictly
// ascending: the form PutValues writes, so the block is byte for byte
// what re-encoding its decoded map would give. The block aliases the
// payload. A block in any other form (keys unsorted or repeated) is
// declined: ok is false, Err is nil and the decoder stays at the
// block's start, for a reader that decodes it. On a decoding error ok
// is false and Err reports it exactly as BorrowValues would.
func (d *Decoder) ValuesBlock() (block []byte, ok bool) {
	start := d.off
	n := d.length()
	var prev []byte
	for i := 0; i < n && d.err == nil; i++ {
		k := d.view()
		d.view()
		if i > 0 && d.err == nil && string(k) <= string(prev) {
			d.off = start
			return nil, false
		}
		prev = k
	}
	if d.err != nil {
		return nil, false
	}
	return d.buf[start:d.off], true
}

// ValuesRun reads a run of values blocks — a count n (Count), then n
// blocks back to back — which must end the payload, and returns
// the blocks in canonical form, the form PutValues writes. When every
// block is canonical (ValuesBlock), run is the blocks as they came,
// aliasing the payload. Otherwise the run is written once into canon,
// which it resets: the canonical blocks as they are, and each other
// block decoded into scratch (BorrowValues, with names) and re-encoded.
// On a decoding error run is nil, n is 0 and Err reports it.
func (d *Decoder) ValuesRun(canon *Encoder, scratch map[string][]byte, names *Interner) (run []byte, n int) {
	n = d.Count()
	start := d.off
	rewritten := false
	for i := 0; i < n && d.err == nil; i++ {
		at := d.off
		block, ok := d.ValuesBlock()
		switch {
		case d.err != nil:
		case !ok:
			if !rewritten {
				canon.Reset()
				canon.PutRaw(d.buf[start:at])
				rewritten = true
			}
			d.BorrowValues(scratch, names)
			canon.PutValues(scratch)
			clear(scratch)
		case rewritten:
			canon.PutRaw(block)
		}
	}
	d.end()
	switch {
	case d.err != nil:
		return nil, 0
	case rewritten:
		return canon.Bytes(), n
	}
	return d.buf[start:d.off], n
}

// internCap and internMaxLen bound an Interner: it holds at most
// internCap names, of at most internMaxLen bytes each.
const (
	internCap    = 256
	internMaxLen = 64
)

// Interner is a per-connection table of the short strings a peer sends
// over and over — class and parameter names — so that decoding a name
// already seen returns the stored string instead of allocating. It is
// bounded: once it holds internCap names, or for a name longer than
// internMaxLen bytes, a name is simply allocated, so a peer cannot grow
// the table. The zero value is ready to use. An Interner is not safe
// for concurrent use.
type Interner struct {
	m map[string]string
}

func (in *Interner) intern(b []byte) string {
	if s, ok := in.m[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(b) <= internMaxLen && len(in.m) < internCap {
		if in.m == nil {
			in.m = make(map[string]string)
		}
		in.m[s] = s
	}
	return s
}
