package wire

import (
	"bufio"
	"bytes"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

func TestTraceFrameRoundTrip(t *testing.T) {
	// Property: any (payload, context) pair written with WriteFrameTC
	// reads back bit-identically with ReadFrameTC, traced or not.
	f := func(payload []byte, hi, lo, span, parent uint64, origin int64) bool {
		tc := TraceContext{TraceHi: hi, TraceLo: lo, SpanID: span, ParentID: parent, OriginNS: origin}
		var buf bytes.Buffer
		if err := WriteFrameTC(&buf, payload, tc); err != nil {
			return false
		}
		got, gotTC, err := ReadFrameTC(&buf)
		if err != nil {
			return false
		}
		if !bytes.Equal(got, payload) {
			return false
		}
		if tc.Valid() {
			return gotTC == tc
		}
		return gotTC == (TraceContext{})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestTraceFrameZeroContextIsLegacy(t *testing.T) {
	// An invalid (zero trace ID) context must produce the byte-exact
	// legacy framing, so untraced sends never change the wire image.
	payload := []byte("legacy-compat")
	var legacy, traced bytes.Buffer
	if err := WriteFrame(&legacy, payload); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrameTC(&traced, payload, TraceContext{OriginNS: 42, SpanID: 7}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(legacy.Bytes(), traced.Bytes()) {
		t.Fatalf("zero-trace frame differs from legacy: %x vs %x", traced.Bytes(), legacy.Bytes())
	}
}

func TestLegacyReadFrameDropsContext(t *testing.T) {
	// A reader that only calls ReadFrame still gets the payload of a
	// traced frame (context dropped).
	tc := TraceContext{TraceHi: 1, TraceLo: 2, SpanID: 3, ParentID: 4, OriginNS: 5}
	var buf bytes.Buffer
	if err := WriteFrameTC(&buf, []byte("traced"), tc); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "traced" {
		t.Fatalf("payload = %q", got)
	}
	if buf.Len() != 0 {
		t.Fatalf("%d bytes left unread", buf.Len())
	}
}

func TestTraceFrameUnknownVersion(t *testing.T) {
	tc := TraceContext{TraceHi: 1, TraceLo: 1}
	var buf bytes.Buffer
	if err := WriteFrameTC(&buf, []byte("x"), tc); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[4] = 99 // corrupt the extension version byte
	_, _, err := ReadFrameTC(bytes.NewReader(raw))
	if err == nil || !strings.Contains(err.Error(), "trace-context version") {
		t.Fatalf("err = %v, want unknown-version error", err)
	}
}

func TestTraceFrameTruncatedExtension(t *testing.T) {
	tc := TraceContext{TraceHi: 1, TraceLo: 1}
	var buf bytes.Buffer
	if err := WriteFrameTC(&buf, []byte("x"), tc); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()[:10] // header word + partial extension
	_, _, err := ReadFrameTC(bytes.NewReader(raw))
	if err == nil || err == io.EOF {
		t.Fatalf("err = %v, want truncation error", err)
	}
}

func TestTraceContextValid(t *testing.T) {
	cases := []struct {
		tc   TraceContext
		want bool
	}{
		{TraceContext{}, false},
		{TraceContext{SpanID: 9, ParentID: 9, OriginNS: 9}, false},
		{TraceContext{TraceHi: 1}, true},
		{TraceContext{TraceLo: 1}, true},
	}
	for _, c := range cases {
		if got := c.tc.Valid(); got != c.want {
			t.Errorf("Valid(%+v) = %v, want %v", c.tc, got, c.want)
		}
	}
}

// TestFrameBuffered feeds a reader one byte at a time: FrameBuffered
// must report a whole frame exactly when the last byte of a legacy or a
// traced frame is in the buffer, and ReadFrameTC must then return it.
func TestFrameBuffered(t *testing.T) {
	for _, tc := range []TraceContext{{}, {TraceHi: 1, SpanID: 2, OriginNS: 3}} {
		var frame bytes.Buffer
		if err := WriteFrameTC(&frame, []byte("payload"), tc); err != nil {
			t.Fatal(err)
		}
		pr, pw := io.Pipe()
		r := bufio.NewReader(pr)
		wire := frame.Bytes()
		go func() {
			for i := range wire {
				_, _ = pw.Write(wire[i : i+1])
			}
		}()
		for i := 1; i <= len(wire); i++ {
			// Each Peek pulls exactly the one byte the pipe offers.
			if _, err := r.Peek(i); err != nil {
				t.Fatal(err)
			}
			if got, want := FrameBuffered(r), i == len(wire); got != want {
				t.Fatalf("traced=%v: FrameBuffered with %d of %d bytes = %v", tc.Valid(), i, len(wire), got)
			}
		}
		payload, _, err := ReadFrameTC(r)
		if err != nil || string(payload) != "payload" {
			t.Fatalf("traced=%v: read %q, %v", tc.Valid(), payload, err)
		}
	}
}

// loopReader serves data over and over, so a bufio.Reader on it yields
// an endless stream of the frames data holds.
type loopReader struct {
	data []byte
	off  int
}

func (r *loopReader) Read(p []byte) (int, error) {
	n := copy(p, r.data[r.off:])
	r.off = (r.off + n) % len(r.data)
	return n, nil
}

// TestFrameIOAllocFree pins the per-message frame I/O of the TCP
// transport at zero allocations: writing a frame, traced or not, into a
// *bufio.Writer — with room for the header and without, so both header
// paths run — and reading it back from a *bufio.Reader into a reused
// buffer.
func TestFrameIOAllocFree(t *testing.T) {
	payload := bytes.Repeat([]byte{0xA5}, 30)
	traced := TraceContext{TraceHi: 1, TraceLo: 2, SpanID: 3, ParentID: 4, OriginNS: 5}
	for _, tc := range []TraceContext{{}, traced} {
		bw := bufio.NewWriterSize(io.Discard, 64)
		if n := testing.AllocsPerRun(200, func() {
			if err := WriteFrameTC(bw, payload, tc); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("traced=%v: WriteFrameTC to a bufio.Writer: %v allocs/frame, want 0", tc.Valid(), n)
		}
		if !tc.Valid() {
			if n := testing.AllocsPerRun(200, func() {
				if err := WriteFrame(bw, payload); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("WriteFrame to a bufio.Writer: %v allocs/frame, want 0", n)
			}
		}

		var stream bytes.Buffer
		if err := WriteFrameTC(&stream, payload, tc); err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReaderSize(&loopReader{data: stream.Bytes()}, 64)
		buf := make([]byte, 0, len(payload))
		if n := testing.AllocsPerRun(200, func() {
			got, gotTC, err := ReadFrameInto(br, buf)
			if err != nil || !bytes.Equal(got, payload) || gotTC != tc {
				t.Fatalf("traced=%v: read %x %+v, %v", tc.Valid(), got, gotTC, err)
			}
			buf = got
		}); n != 0 {
			t.Errorf("traced=%v: ReadFrameInto from a bufio.Reader: %v allocs/frame, want 0", tc.Valid(), n)
		}
	}
}

// TestFrameBufioRoundTrip writes a mix of legacy and traced frames
// through bufio.Writers smaller than, near and far above a traced
// header and reads them back through bufio.Readers of the same sizes:
// the bytes must equal what a plain io.Writer receives, and every
// reader path — ReadFrameTC, and ReadFrameInto reusing one buffer —
// must return each frame whole.
func TestFrameBufioRoundTrip(t *testing.T) {
	type frame struct {
		payload []byte
		tc      TraceContext
	}
	var frames []frame
	for i := range 40 {
		var tc TraceContext
		if i%3 == 0 {
			tc = TraceContext{TraceHi: uint64(i), TraceLo: 1, SpanID: uint64(i * 7), OriginNS: int64(i)}
		}
		frames = append(frames, frame{bytes.Repeat([]byte{byte(i)}, (i*37)%200), tc})
	}
	var want bytes.Buffer
	for _, f := range frames {
		if err := WriteFrameTC(&want, f.payload, f.tc); err != nil {
			t.Fatal(err)
		}
	}
	for _, size := range []int{16, 50, 4096} {
		var got bytes.Buffer
		bw := bufio.NewWriterSize(&got, size)
		for _, f := range frames {
			if err := WriteFrameTC(bw, f.payload, f.tc); err != nil {
				t.Fatal(err)
			}
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("bufio.Writer size %d wrote different bytes", size)
		}
		for _, reuse := range []bool{false, true} {
			br := bufio.NewReaderSize(bytes.NewReader(want.Bytes()), size)
			var buf []byte
			for i, f := range frames {
				var p []byte
				var tc TraceContext
				var err error
				if reuse {
					p, tc, err = ReadFrameInto(br, buf)
					buf = p
				} else {
					p, tc, err = ReadFrameTC(br)
				}
				if err != nil || !bytes.Equal(p, f.payload) || tc != f.tc {
					t.Fatalf("size %d reuse=%v frame %d: got %d bytes %+v, %v", size, reuse, i, len(p), tc, err)
				}
			}
			if _, _, err := ReadFrameInto(br, buf); err != io.EOF {
				t.Fatalf("size %d reuse=%v: read past end: %v, want EOF", size, reuse, err)
			}
		}
	}
	// A header cut short is an unexpected EOF on both reader paths.
	for _, r := range []io.Reader{bytes.NewReader(want.Bytes()[:2]), bufio.NewReader(bytes.NewReader(want.Bytes()[:2]))} {
		if _, _, err := ReadFrameTC(r); err != io.ErrUnexpectedEOF {
			t.Errorf("%T: truncated header: %v, want io.ErrUnexpectedEOF", r, err)
		}
	}
}
