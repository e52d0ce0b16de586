package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"reflect"
	"runtime"
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
	e.PutStrings([]string{"a", "bb", ""})
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
	if got := d.Strings(); !reflect.DeepEqual(got, []string{"a", "bb", ""}) {
		t.Errorf("Strings = %v", got)
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
	if d.Values() != nil || d.Strings() != nil || d.Bytes() != nil {
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

// TestDecoderCountHintsBounded feeds Strings and Values a list count
// that the payload's length admits but its bytes cannot back: the
// element data is garbage, so decoding fails on the first element.
// The capacity hint must be capped by what the remaining bytes can
// hold (4 per string, 8 per map entry), not taken from the wire, so a
// 1 MiB frame cannot make the decoder allocate tens of MiB.
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
		{"Strings", func(d *Decoder) { d.Strings() }, 8 << 20},
		{"Values", func(d *Decoder) { d.Values() }, 32 << 20},
		{"OwnValues", func(d *Decoder) { d.OwnValues(&Interner{}) }, 32 << 20},
		{"BorrowValues", func(d *Decoder) { d.BorrowValues(make(map[string][]byte), &Interner{}) }, 32 << 20},
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

	// Well-formed lists still decode whole, empty elements included.
	var e Encoder
	e.PutStrings([]string{"", "a", "bc"})
	e.PutValues(map[string][]byte{"": {}, "k": {1, 2}})
	e.PutStrings(nil)
	e.PutValues(nil)
	d := NewDecoder(e.Bytes())
	ss, vs, empty, none := d.Strings(), d.Values(), d.Strings(), d.Values()
	if err := d.Err(); err != nil || d.Remaining() != 0 {
		t.Fatalf("round trip: err %v, %d bytes left", err, d.Remaining())
	}
	if !reflect.DeepEqual(ss, []string{"", "a", "bc"}) || !reflect.DeepEqual(vs, map[string][]byte{"": {}, "k": {1, 2}}) ||
		len(empty) != 0 || len(none) != 0 {
		t.Errorf("round trip: %q %v %q %v", ss, vs, empty, none)
	}
	d = NewDecoder(e.Bytes())
	d.Strings()
	owned := d.OwnValues(&Interner{})
	d = NewDecoder(e.Bytes())
	d.Strings()
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
// and the borrowed BorrowValues a server passes to the RTI. The input
// is a callback frame body — type, class name, time, then the map —
// and on any input all three must agree on the error and on the class,
// time and content; none may panic, an owned value must be capped at
// its length, and the intern table, shared across inputs, must stay
// within its cap.
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
		e.PutBytes([]byte{0, 0, 0, 2})
		for _, v := range []string{"first", "second"} {
			e.PutString("x")
			e.PutString(v)
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
	})
}
