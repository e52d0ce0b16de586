package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{
		[]byte("hello"),
		{},
		bytes.Repeat([]byte{0xAB}, 10000),
	}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range payloads {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame = %v, want %v", got, want)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Errorf("read past end: %v, want EOF", err)
	}
}

func TestFrameTooLarge(t *testing.T) {
	big := make([]byte, MaxFrameSize+1)
	if err := WriteFrame(io.Discard, big); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("WriteFrame oversized: %v", err)
	}
	// A corrupt header claiming an oversized frame is rejected.
	hdr := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := ReadFrame(bytes.NewReader(hdr)); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("ReadFrame oversized header: %v", err)
	}
}

func TestFrameTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("full payload")); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, err := ReadFrame(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated payload did not error")
	}
}

func TestEncoderDecoderRoundTrip(t *testing.T) {
	var e Encoder
	e.PutByte(7)
	e.PutUint64(1<<63 + 5)
	e.PutInt64(-42)
	e.PutFloat64(3.14159)
	e.PutString("hello world")
	e.PutBytes([]byte{1, 2, 3})
	e.PutValues(map[string][]byte{"x": {9}, "a": {1, 2}})

	d := NewDecoder(e.Bytes())
	if got := d.Byte(); got != 7 {
		t.Errorf("Byte = %d", got)
	}
	if got := d.Uint64(); got != 1<<63+5 {
		t.Errorf("Uint64 = %d", got)
	}
	if got := d.Int64(); got != -42 {
		t.Errorf("Int64 = %d", got)
	}
	if got := d.Float64(); got != 3.14159 {
		t.Errorf("Float64 = %v", got)
	}
	if got := d.String(); got != "hello world" {
		t.Errorf("String = %q", got)
	}
	if got := d.Bytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Bytes = %v", got)
	}
	got := d.Values()
	want := map[string][]byte{"x": {9}, "a": {1, 2}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Values = %v, want %v", got, want)
	}
	if d.Err() != nil {
		t.Errorf("Err = %v", d.Err())
	}
	if d.Remaining() != 0 {
		t.Errorf("Remaining = %d", d.Remaining())
	}
}

func TestDecoderStickyError(t *testing.T) {
	d := NewDecoder([]byte{1, 2})
	_ = d.Uint64() // too short
	if !errors.Is(d.Err(), ErrShortBuffer) {
		t.Fatalf("Err = %v", d.Err())
	}
	// Further reads return zero values and keep the first error.
	if d.Byte() != 0 || d.String() != "" || d.Float64() != 0 {
		t.Error("reads after error not zero")
	}
	if d.Values() != nil || d.Bytes() != nil {
		t.Error("composite reads after error not nil")
	}
	if !errors.Is(d.Err(), ErrShortBuffer) {
		t.Errorf("Err changed: %v", d.Err())
	}
}

func TestDecoderCorruptLength(t *testing.T) {
	// A length prefix larger than the remaining buffer must fail cleanly,
	// not allocate or panic.
	var e Encoder
	e.PutBytes([]byte("abc"))
	payload := e.Bytes()
	payload[3] = 0xFF // corrupt the 4-byte length
	d := NewDecoder(payload)
	if got := d.Bytes(); got != nil {
		t.Errorf("Bytes from corrupt length = %v", got)
	}
	if d.Err() == nil {
		t.Error("corrupt length not detected")
	}
}

func TestValuesDeterministicEncoding(t *testing.T) {
	m := map[string][]byte{"z": {1}, "a": {2}, "m": {3}}
	var e1, e2 Encoder
	e1.PutValues(m)
	e2.PutValues(map[string][]byte{"m": {3}, "z": {1}, "a": {2}})
	if !bytes.Equal(e1.Bytes(), e2.Bytes()) {
		t.Error("equal maps encoded differently")
	}
}

// referenceValues is PutValues as it was first written: sort the keys,
// then look each one up again.
func referenceValues(v map[string][]byte) []byte {
	keys := make([]string, 0, len(v))
	for k := range v {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var e Encoder
	e.buf = binary.BigEndian.AppendUint32(e.buf, uint32(len(keys)))
	for _, k := range keys {
		e.PutString(k)
		e.PutBytes(v[k])
	}
	return e.Bytes()
}

// TestPutValuesMatchesReference holds the one-pass PutValues to the
// sort-then-look-up encoding byte for byte, for maps on both sides of
// the stack array's eight entries, empty keys and values included, and
// checks ValuesSize against the encoded length.
func TestPutValuesMatchesReference(t *testing.T) {
	f := func(m map[string][]byte) bool {
		var e Encoder
		e.PutValues(m)
		return bytes.Equal(e.Bytes(), referenceValues(m)) && ValuesSize(m) == len(e.Bytes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	for _, n := range []int{0, 1, 8, 9, 40} {
		m := map[string][]byte{"": {}}
		for i := range n {
			m[fmt.Sprintf("k%02d", n-i)] = bytes.Repeat([]byte{byte(i)}, i%5)
		}
		if !f(m) {
			t.Errorf("%d-key map: encoding differs from the reference", len(m))
		}
	}
}

// luValues is the LU parameter map the benchmarks encode: node, x and
// y as 8-byte values.
var luValues = map[string][]byte{
	"node": bytes.Repeat([]byte{1}, 8),
	"x":    bytes.Repeat([]byte{2}, 8),
	"y":    bytes.Repeat([]byte{3}, 8),
}

// TestPutValuesAllocFree pins encoding a map of up to eight keys into
// an encoder with room at zero allocations.
func TestPutValuesAllocFree(t *testing.T) {
	var e Encoder
	e.PutValues(luValues)
	if n := testing.AllocsPerRun(200, func() {
		e.Reset()
		e.PutValues(luValues)
	}); n != 0 {
		t.Errorf("PutValues: %v allocs/op, want 0", n)
	}
}

func BenchmarkPutValues(b *testing.B) {
	var e Encoder
	b.ReportAllocs()
	for b.Loop() {
		e.Reset()
		e.PutValues(luValues)
	}
}

// TestValuesBlock checks the raw reader: a block in PutValues' form is
// returned whole, aliasing the payload; one with keys out of order or
// repeated is declined without an error and leaves the decoder at its
// start; a truncated one fails exactly as BorrowValues does.
func TestValuesBlock(t *testing.T) {
	var canon Encoder
	canon.PutValues(map[string][]byte{"a": {1}, "b": {}, "c": {3, 4}})
	entries := func(kv ...string) []byte {
		var e Encoder
		e.buf = binary.BigEndian.AppendUint32(e.buf, uint32(len(kv)/2))
		for i := 0; i < len(kv); i += 2 {
			e.PutString(kv[i])
			e.PutString(kv[i+1])
		}
		return e.Bytes()
	}
	for _, tc := range []struct {
		name  string
		block []byte
		ok    bool
	}{
		{"canonical", canon.Bytes(), true},
		{"empty", entries(), true},
		{"empty key first", entries("", "x", "a", "y"), true},
		{"unsorted", entries("b", "1", "a", "2"), false},
		{"duplicate", entries("a", "1", "a", "2"), false},
		{"unsorted late", entries("a", "1", "c", "2", "b", "3"), false},
	} {
		payload := append([]byte{7}, tc.block...)
		payload = append(payload, 9)
		d := NewDecoder(payload)
		d.Byte()
		block, ok := d.ValuesBlock()
		if ok != tc.ok || d.Err() != nil {
			t.Errorf("%s: ok %v, err %v; want ok %v", tc.name, ok, d.Err(), tc.ok)
			continue
		}
		if ok {
			if !bytes.Equal(block, tc.block) || &block[0] != &payload[1] || d.Byte() != 9 {
				t.Errorf("%s: block %x, want %x aliasing the payload and the reader past it", tc.name, block, tc.block)
			}
			continue
		}
		if d.Remaining() != len(tc.block)+1 {
			t.Errorf("%s: declined with %d bytes left, want the decoder at the block's start (%d)", tc.name, d.Remaining(), len(tc.block)+1)
		}
	}

	full := canon.Bytes()
	for cut := range len(full) {
		d, ref := NewDecoder(full[:cut]), NewDecoder(full[:cut])
		if _, ok := d.ValuesBlock(); ok {
			t.Fatalf("cut %d: truncated block accepted", cut)
		}
		ref.BorrowValues(make(map[string][]byte), nil)
		if d.Err() == nil || ref.Err() == nil || d.Err().Error() != ref.Err().Error() {
			t.Errorf("cut %d: error %v, BorrowValues error %v", cut, d.Err(), ref.Err())
		}
	}
}

func TestBytesReturnsCopy(t *testing.T) {
	var e Encoder
	e.PutBytes([]byte{1, 2, 3})
	payload := e.Bytes()
	d := NewDecoder(payload)
	got := d.Bytes()
	payload[5] = 99 // mutate the source buffer (offset 4 is length)
	if got[1] == 99 {
		t.Error("decoded bytes alias the payload")
	}
}

func TestEncoderReset(t *testing.T) {
	var e Encoder
	e.PutString("data")
	e.Reset()
	if len(e.Bytes()) != 0 {
		t.Errorf("after Reset: %v", e.Bytes())
	}
}

func TestFloatSpecialValues(t *testing.T) {
	var e Encoder
	e.PutFloat64(math.Inf(1))
	e.PutFloat64(math.Inf(-1))
	e.PutFloat64(math.NaN())
	d := NewDecoder(e.Bytes())
	if !math.IsInf(d.Float64(), 1) || !math.IsInf(d.Float64(), -1) || !math.IsNaN(d.Float64()) {
		t.Error("special float values mangled")
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(b byte, u uint64, fl float64, s string, raw []byte, m map[string][]byte) bool {
		var e Encoder
		e.PutByte(b)
		e.PutUint64(u)
		e.PutFloat64(fl)
		e.PutString(s)
		e.PutBytes(raw)
		e.PutValues(m)

		d := NewDecoder(e.Bytes())
		if d.Byte() != b || d.Uint64() != u {
			return false
		}
		gf := d.Float64()
		if gf != fl && !(math.IsNaN(gf) && math.IsNaN(fl)) {
			return false
		}
		if d.String() != s {
			return false
		}
		gb := d.Bytes()
		if len(gb) != len(raw) || !bytes.Equal(gb, raw) {
			return false
		}
		gm := d.Values()
		if len(gm) != len(m) {
			return false
		}
		for k, v := range m {
			if !bytes.Equal(gm[k], v) {
				return false
			}
		}
		return d.Err() == nil && d.Remaining() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDecoderRandomInputNeverPanics(t *testing.T) {
	f := func(payload []byte) bool {
		d := NewDecoder(payload)
		// Drain the payload with a mix of reads; any input must terminate
		// cleanly with either success or a sticky error.
		for d.Err() == nil && d.Remaining() > 0 {
			_ = d.Byte()
			_ = d.Bytes()
			_ = d.Values()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestDecoderCountHintsBounded feeds the map decoders a count that the
// payload's length admits but its bytes cannot back: the element data
// is garbage, so decoding fails on the first element. The capacity
// hint must be capped by what the remaining bytes can hold (8 per map
// entry), not taken from the wire, so a 1 MiB frame cannot make the
// decoder allocate tens of MiB.
func TestDecoderCountHintsBounded(t *testing.T) {
	const size = 1 << 20
	crafted := make([]byte, size)
	for i := range crafted {
		crafted[i] = 0xFF
	}
	// The count claims every remaining byte is one element.
	crafted[0], crafted[1], crafted[2], crafted[3] = 0, 0x0F, 0xFF, 0xFC
	cases := []struct {
		name   string
		decode func(d *Decoder)
		limit  uint64
	}{
		{"Values", func(d *Decoder) { d.Values() }, 32 << 20},
		{"OwnValues", func(d *Decoder) { d.OwnValues(&Interner{}) }, 32 << 20},
		{"BorrowValues", func(d *Decoder) { d.BorrowValues(make(map[string][]byte), &Interner{}) }, 32 << 20},
	}
	// A run count the payload's length admits, over garbage blocks.
	run := slices.Clone(crafted)
	binary.BigEndian.PutUint32(run, uint32((size-4)/4))
	runCases := []struct {
		name   string
		decode func(d *Decoder)
		limit  uint64
	}{
		{"ValuesRun", func(d *Decoder) { d.ValuesRun(&Encoder{}, make(map[string][]byte), &Interner{}) }, 1 << 20},
		{"OwnValuesRun", func(d *Decoder) { d.OwnValuesRun(d.Count(), &Interner{}, func(map[string][]byte) {}) }, 1 << 20},
	}
	for _, tc := range runCases {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		d := NewDecoder(run)
		tc.decode(d)
		runtime.ReadMemStats(&after)
		if d.Err() == nil {
			t.Errorf("%s: garbage blocks decoded without error", tc.name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > tc.limit {
			t.Errorf("%s: a %d-byte run allocated %d bytes, want at most %d", tc.name, size, got, tc.limit)
		}
	}
	for _, tc := range cases {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		d := NewDecoder(crafted)
		tc.decode(d)
		runtime.ReadMemStats(&after)
		if d.Err() == nil {
			t.Errorf("%s: garbage elements decoded without error", tc.name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > tc.limit {
			t.Errorf("%s: a %d-byte frame allocated %d bytes, want at most %d", tc.name, size, got, tc.limit)
		}
	}

	// Well-formed maps still decode whole, empty elements included.
	var e Encoder
	e.PutValues(map[string][]byte{"": {}, "k": {1, 2}})
	e.PutValues(nil)
	d := NewDecoder(e.Bytes())
	vs, none := d.Values(), d.Values()
	if err := d.Err(); err != nil || d.Remaining() != 0 {
		t.Fatalf("round trip: err %v, %d bytes left", err, d.Remaining())
	}
	if !reflect.DeepEqual(vs, map[string][]byte{"": {}, "k": {1, 2}}) || len(none) != 0 {
		t.Errorf("round trip: %v %v", vs, none)
	}
	d = NewDecoder(e.Bytes())
	owned := d.OwnValues(&Interner{})
	d = NewDecoder(e.Bytes())
	borrowed := map[string][]byte{"stale": nil}
	d.BorrowValues(borrowed, &Interner{})
	for name, m := range map[string]map[string][]byte{"owned": owned, "borrowed": borrowed} {
		if err := d.Err(); err != nil || !reflect.DeepEqual(m, map[string][]byte{"": {}, "k": {1, 2}}) {
			t.Errorf("%s round trip: %v, %v", name, m, err)
		}
	}
}

// TestInternerBounded sends more distinct names than the intern table
// holds, and names longer than it keeps: every name still decodes to
// its own text, repeats of a held name return the held string, and the
// table never grows past internCap.
func TestInternerBounded(t *testing.T) {
	var names Interner
	var e Encoder
	for i := range 2 * internCap {
		e.PutString(fmt.Sprintf("name%d", i))
	}
	long := strings.Repeat("x", internMaxLen+1)
	e.PutString(long)
	e.PutString(long)
	d := NewDecoder(e.Bytes())
	for i := range 2 * internCap {
		if got, want := d.Name(&names), fmt.Sprintf("name%d", i); got != want {
			t.Fatalf("name %d = %q, want %q", i, got, want)
		}
	}
	if got := d.Name(&names) + d.Name(&names); got != long+long || d.Err() != nil {
		t.Fatalf("long names = %d bytes, %v", len(got), d.Err())
	}
	if len(names.m) != internCap {
		t.Fatalf("table holds %d names, want the cap %d", len(names.m), internCap)
	}
	var again Encoder
	again.PutString("name7")
	if n := testing.AllocsPerRun(100, func() { NewDecoder(again.Bytes()).Name(&names) }); n != 0 {
		t.Errorf("a held name allocates %v times, want 0", n)
	}
}

// FuzzValuesDecode holds the three Values decodes to one another: the
// copying Values, the owned OwnValues a client hands its ambassador,
// and the borrowed BorrowValues a server decodes updates with. The
// input is a callback frame body — type, class name, time, then the
// map — and on any input all three must agree on the error and on the
// class, time and content; none may panic, an owned value must be
// capped at its length, and the intern table, shared across inputs,
// must stay within its cap. The raw ValuesBlock a server forwards is
// held to them too: a block it accepts decodes without error and
// re-encodes (PutValues) to itself, byte for byte; it declines without
// an error only a block whose keys are not strictly ascending, and
// then leaves the decoder at the block; its errors are BorrowValues'.
func FuzzValuesDecode(f *testing.F) {
	frame := func(class string, values func(e *Encoder)) []byte {
		var e Encoder
		e.PutByte(22)
		e.PutString(class)
		e.PutFloat64(1.5)
		values(&e)
		return e.Bytes()
	}
	for i := range 3 {
		golden := frame("LU", func(e *Encoder) {
			e.PutValues(map[string][]byte{"node": {0, 0, 0, byte(i)}, "x": bytes.Repeat([]byte{byte(i)}, 8), "y": {}})
		})
		f.Add(golden)
		for _, cut := range []int{1, 5, len(golden) / 2, len(golden) - 1} {
			f.Add(golden[:cut])
		}
	}
	f.Add(frame("", func(e *Encoder) { e.PutValues(nil) }))
	// Duplicate keys: the last value wins.
	f.Add(frame("LU", func(e *Encoder) {
		e.buf = binary.BigEndian.AppendUint32(e.buf, 2)
		for _, v := range []string{"first", "second"} {
			e.PutString("x")
			e.PutString(v)
		}
	}))
	// Keys out of order.
	f.Add(frame("LU", func(e *Encoder) {
		e.buf = binary.BigEndian.AppendUint32(e.buf, 2)
		for _, k := range []string{"y", "x"} {
			e.PutString(k)
			e.PutString(k)
		}
	}))
	// A count past the remaining bytes.
	f.Add(frame("LU", func(e *Encoder) { e.PutBytes([]byte{0xFF, 0xFF, 0xFF, 0xFF}) }))

	var names Interner
	scratch := make(map[string][]byte)
	f.Fuzz(func(t *testing.T, data []byte) {
		type decoded struct {
			class  string
			time   uint64
			values map[string][]byte
			err    error
		}
		run := func(interned bool, values func(d *Decoder) map[string][]byte) decoded {
			d := NewDecoder(data)
			d.Byte()
			var out decoded
			if interned {
				out.class = d.Name(&names)
			} else {
				out.class = d.String()
			}
			out.time = math.Float64bits(d.Float64())
			out.values = maps.Clone(values(d)) // the borrowed map is reused
			out.err = d.Err()
			return out
		}
		copied := run(false, (*Decoder).Values)
		owned := run(true, func(d *Decoder) map[string][]byte {
			v := d.OwnValues(&names)
			for k, b := range v {
				if cap(b) != len(b) {
					t.Fatalf("owned value %q has cap %d > len %d", k, cap(b), len(b))
				}
			}
			return v
		})
		borrowed := run(true, func(d *Decoder) map[string][]byte {
			d.BorrowValues(scratch, &names)
			return scratch
		})
		for _, c := range []struct {
			name string
			got  decoded
		}{{"owned", owned}, {"borrowed", borrowed}} {
			if (c.got.err == nil) != (copied.err == nil) {
				t.Fatalf("%s decode error %v, copying decode error %v", c.name, c.got.err, copied.err)
			}
			if copied.err == nil && (c.got.class != copied.class || c.got.time != copied.time ||
				!maps.EqualFunc(c.got.values, copied.values, bytes.Equal)) {
				t.Fatalf("%s decode = %+v, copying decode = %+v", c.name, c.got, copied)
			}
		}
		if len(names.m) > internCap {
			t.Fatalf("intern table holds %d names, cap %d", len(names.m), internCap)
		}

		d := NewDecoder(data)
		d.Byte()
		d.view() // the class
		d.Float64()
		at := d.off
		block, ok := d.ValuesBlock()
		switch {
		case ok:
			bd := NewDecoder(block)
			m := bd.Values()
			var e Encoder
			e.PutValues(m)
			if bd.Err() != nil || bd.Remaining() != 0 || !bytes.Equal(e.Bytes(), block) {
				t.Fatalf("accepted block %x decodes to %v (err %v, %d bytes left) and re-encodes to %x",
					block, m, bd.Err(), bd.Remaining(), e.Bytes())
			}
			if copied.err != nil || !maps.EqualFunc(m, copied.values, bytes.Equal) {
				t.Fatalf("accepted block decodes to %v, copying decode = %v, %v", m, copied.values, copied.err)
			}
		case d.Err() == nil:
			if d.off != at {
				t.Fatalf("declined block left the decoder at %d, want its start %d", d.off, at)
			}
			// The keys read before the first bad entry.
			var keys []string
			kd := NewDecoder(data[at:])
			n := kd.length()
			for i := 0; i < n && kd.err == nil; i++ {
				k := kd.String()
				if kd.view(); kd.err == nil {
					keys = append(keys, k)
				}
			}
			if slices.IsSorted(keys) && len(slices.Compact(slices.Clone(keys))) == len(keys) {
				t.Fatalf("declined a block with strictly ascending keys %q", keys)
			}
		default:
			if borrowed.err == nil || d.Err().Error() != borrowed.err.Error() {
				t.Fatalf("block error %v, borrowed decode error %v", d.Err(), borrowed.err)
			}
		}
	})
}

// referenceRun decodes a values run the plain way: a nonzero count,
// then that many blocks through the copying Values, and nothing after.
func referenceRun(data []byte) ([]map[string][]byte, bool) {
	if len(data) < 4 || binary.BigEndian.Uint32(data) == 0 {
		return nil, false
	}
	n := binary.BigEndian.Uint32(data)
	d := NewDecoder(data[4:])
	var out []map[string][]byte
	for range n {
		m := d.Values()
		if d.Err() != nil {
			return nil, false
		}
		out = append(out, m)
	}
	return out, d.Remaining() == 0
}

// FuzzInteractionFrame holds the run decoders an interaction frame goes
// through — Count, the server's ValuesRun and a receiving client's
// OwnValuesRun — to the plain decode of referenceRun. The input is a
// run: a count, then values blocks. On any input neither may panic;
// both fail exactly when the reference does (a count of 0, a count the
// blocks do not fill, a bad block, bytes after the last block), with
// ErrMalformed or ErrShortBuffer; Count never returns more than the
// remaining bytes can hold. An accepted run decodes to the reference's
// maps, in order: ValuesRun's bytes are the concatenation of each map's
// PutValues encoding — the input itself, aliased, when every block is
// canonical — and OwnValuesRun's values are capped at their lengths.
func FuzzInteractionFrame(f *testing.F) {
	block := func(kv ...string) []byte {
		b := binary.BigEndian.AppendUint32(nil, uint32(len(kv)/2))
		for _, s := range kv {
			b = appendPrefixed(b, s)
		}
		return b
	}
	run := func(count int, blocks ...[]byte) []byte {
		b := binary.BigEndian.AppendUint32(nil, uint32(count))
		for _, bl := range blocks {
			b = append(b, bl...)
		}
		return b
	}
	lu := block("node", "\x00\x01", "x", "12345678", "y", "")
	unsorted := block("y", "2", "x", "1")
	repeated := block("x", "first", "x", "second")
	three := run(3, lu, unsorted, block())
	f.Add(run(1, lu))
	f.Add(three)
	f.Add(run(4, lu, repeated, lu, lu))
	f.Add(run(0))
	f.Add(run(0, lu))
	f.Add(run(2, lu))
	f.Add(run(1<<30, lu))
	f.Add(append(run(1, lu), 0))
	for _, cut := range []int{2, 4, 9, len(three) / 2, len(three) - 1} {
		f.Add(three[:cut])
	}

	var names Interner
	scratch := make(map[string][]byte)
	var canon Encoder
	f.Fuzz(func(t *testing.T, data []byte) {
		want, ok := referenceRun(data)
		checkErr := func(name string, err error) {
			t.Helper()
			if (err == nil) != ok {
				t.Fatalf("%s error %v, reference accepts: %v", name, err, ok)
			}
			if err != nil && !errors.Is(err, ErrMalformed) && !errors.Is(err, ErrShortBuffer) {
				t.Fatalf("%s error %v is neither ErrMalformed nor ErrShortBuffer", name, err)
			}
		}

		d := NewDecoder(data)
		got, n := d.ValuesRun(&canon, scratch, &names)
		checkErr("ValuesRun", d.Err())
		if ok {
			var e Encoder
			for _, m := range want {
				e.PutValues(m)
			}
			if n != len(want) || !bytes.Equal(got, e.Bytes()) {
				t.Fatalf("ValuesRun = %d blocks %x, want %d blocks %x", n, got, len(want), e.Bytes())
			}
			aliased := len(got) > 0 && &got[0] == &data[4]
			if canonical := bytes.Equal(got, data[4:]); aliased != canonical {
				t.Fatalf("ValuesRun aliases the input: %v; the input is canonical: %v", aliased, canonical)
			}
		}

		d = NewDecoder(data)
		count := d.Count()
		if d.Err() == nil && (count < 1 || count > d.Remaining()/4) {
			t.Fatalf("Count = %d with %d bytes left", count, d.Remaining())
		}
		var owned []map[string][]byte
		d.OwnValuesRun(count, &names, func(m map[string][]byte) {
			for k, b := range m {
				if cap(b) != len(b) {
					t.Fatalf("owned value %q has cap %d > len %d", k, cap(b), len(b))
				}
			}
			owned = append(owned, m)
		})
		checkErr("OwnValuesRun", d.Err())
		if !ok && len(owned) != 0 {
			t.Fatalf("OwnValuesRun handed over %d maps of a run it failed on", len(owned))
		}
		if ok && !slices.EqualFunc(owned, want, func(a, b map[string][]byte) bool { return maps.EqualFunc(a, b, bytes.Equal) }) {
			t.Fatalf("OwnValuesRun = %v, want %v", owned, want)
		}
		if len(names.m) > internCap {
			t.Fatalf("intern table holds %d names, cap %d", len(names.m), internCap)
		}
	})
}
