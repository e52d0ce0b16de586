package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Trace-context frames extend the legacy framing without breaking old
// readers of new writers' untraced frames: MaxFrameSize is 16 MiB, so
// bit 31 of the length word is always zero in a legacy header. A traced
// frame sets that bit and follows the length word with a one-byte
// extension version and a fixed 40-byte trace context, then the payload
// (whose length the header word still counts exclusively). ReadFrame
// understands both forms, so a traced sender interoperates with a
// receiver that ignores tracing.
const (
	// tcFlag marks an extended (traced) frame in the header length word.
	tcFlag = 0x8000_0000
	// tcVersion is the only extension layout this codec speaks.
	tcVersion = 1
	// tcSize is the fixed encoded size of a TraceContext.
	tcSize = 40

	// MaxHeaderSize is the largest frame header WriteFrameTC emits: the
	// length word, the extension version byte and the trace context.
	MaxHeaderSize = 4 + 1 + tcSize
)

// TraceContext is the compact causal-identity header carried by traced
// frames: a 128-bit trace ID shared by every span of one logical
// request, a 64-bit span ID for this hop, the parent hop's span ID (0
// at the root), and the origin timestamp (Unix nanoseconds at the trace
// root) from which downstream hops derive freshness lag. The zero value
// means "untraced".
type TraceContext struct {
	TraceHi  uint64
	TraceLo  uint64
	SpanID   uint64
	ParentID uint64
	OriginNS int64
}

// Valid reports whether the context names a real trace (a zero 128-bit
// trace ID is the untraced sentinel).
func (tc TraceContext) Valid() bool { return tc.TraceHi|tc.TraceLo != 0 }

// appendTo encodes the fixed 40-byte layout into b.
func (tc TraceContext) appendTo(b []byte) []byte {
	b = binary.BigEndian.AppendUint64(b, tc.TraceHi)
	b = binary.BigEndian.AppendUint64(b, tc.TraceLo)
	b = binary.BigEndian.AppendUint64(b, tc.SpanID)
	b = binary.BigEndian.AppendUint64(b, tc.ParentID)
	b = binary.BigEndian.AppendUint64(b, uint64(tc.OriginNS))
	return b
}

// decodeTC reads the fixed 40-byte layout.
func decodeTC(b []byte) TraceContext {
	return TraceContext{
		TraceHi:  binary.BigEndian.Uint64(b[0:8]),
		TraceLo:  binary.BigEndian.Uint64(b[8:16]),
		SpanID:   binary.BigEndian.Uint64(b[16:24]),
		ParentID: binary.BigEndian.Uint64(b[24:32]),
		OriginNS: int64(binary.BigEndian.Uint64(b[32:40])),
	}
}

// WriteFrameTC writes one frame carrying tc. An invalid (zero) context
// falls back to the legacy header, so untraced sends are bit-identical
// to WriteFrame. On a *bufio.Writer the header is built in the writer's
// own buffer, so neither form allocates; any other writer gets the
// header as one Write of a fresh slice.
func WriteFrameTC(w io.Writer, payload []byte, tc TraceContext) error {
	if len(payload) > MaxFrameSize {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(payload))
	}
	if err := writeHeader(w, len(payload), tc); err != nil {
		return fmt.Errorf("wire: write frame header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("wire: write frame payload: %w", err)
	}
	return nil
}

// appendHeader appends the header of an n-byte frame carrying tc: the
// length word, then for a valid tc the extension version and the trace
// context.
func appendHeader(b []byte, n int, tc TraceContext) []byte {
	if !tc.Valid() {
		return binary.BigEndian.AppendUint32(b, uint32(n))
	}
	b = binary.BigEndian.AppendUint32(b, tcFlag|uint32(n))
	b = append(b, tcVersion)
	return tc.appendTo(b)
}

// writeHeader writes the header of an n-byte frame carrying tc. A
// header passed to an io.Writer escapes to the heap, so a
// *bufio.Writer gets it through AvailableBuffer, or byte by byte when
// its buffer lacks the room.
func writeHeader(w io.Writer, n int, tc TraceContext) error {
	bw, ok := w.(*bufio.Writer)
	if !ok {
		_, err := w.Write(appendHeader(make([]byte, 0, MaxHeaderSize), n, tc))
		return err
	}
	size := 4
	if tc.Valid() {
		size = MaxHeaderSize
	}
	if bw.Available() >= size {
		_, err := bw.Write(appendHeader(bw.AvailableBuffer(), n, tc))
		return err
	}
	var hdr [MaxHeaderSize]byte
	for _, c := range appendHeader(hdr[:0], n, tc) {
		if err := bw.WriteByte(c); err != nil {
			return err
		}
	}
	return nil
}

// ReadFrameTC reads one frame in either form, returning the payload and
// the trace context (zero for legacy frames). The payload is a fresh
// slice the caller owns.
func ReadFrameTC(r io.Reader) ([]byte, TraceContext, error) {
	return ReadFrameInto(r, nil)
}

// ReadFrameInto is ReadFrameTC reading the payload into buf, which it
// grows (at least doubling) when the frame does not fit; the payload is
// buf[:n] or a new slice. A caller that passes the last payload back in
// reuses one buffer for every frame, and each payload is then valid
// only until the next call. A nil buf always yields a fresh slice. On a *bufio.Reader
// the header is read in place from the reader's buffer, so a frame that
// fits buf allocates nothing.
func ReadFrameInto(r io.Reader, buf []byte) ([]byte, TraceContext, error) {
	hdr, err := readHeader(r, 4)
	if err != nil {
		return nil, TraceContext{}, err
	}
	word := binary.BigEndian.Uint32(hdr)
	n := int(word &^ uint32(tcFlag))
	if n > MaxFrameSize {
		return nil, TraceContext{}, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	var tc TraceContext
	if word&tcFlag != 0 {
		ext, err := readHeader(r, 1+tcSize)
		if err != nil {
			return nil, TraceContext{}, fmt.Errorf("wire: read frame trace context: %w", err)
		}
		if ext[0] != tcVersion {
			return nil, TraceContext{}, fmt.Errorf("wire: unknown trace-context version %d", ext[0])
		}
		tc = decodeTC(ext[1:])
	}
	if buf == nil || cap(buf) < n {
		buf = make([]byte, n, max(n, 2*cap(buf)))
	}
	payload := buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, TraceContext{}, fmt.Errorf("wire: read frame payload: %w", err)
	}
	return payload, tc, nil
}

// readHeader reads the next n header bytes of r with io.ReadFull's
// errors. A *bufio.Reader lends them from its buffer (valid until its
// next read) instead of copying them into a slice that would escape.
func readHeader(r io.Reader, n int) ([]byte, error) {
	br, ok := r.(*bufio.Reader)
	if !ok || br.Size() < n {
		b := make([]byte, n)
		_, err := io.ReadFull(r, b)
		return b, err
	}
	b, err := br.Peek(n)
	if err != nil {
		if err == io.EOF && len(b) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	_, _ = br.Discard(n) // n bytes are buffered: Discard cannot fail
	return b, nil
}

// FrameBuffered reports whether r already holds one whole frame of
// either form, so that ReadFrameTC(r) returns it without reading from
// r's source. A frame larger than r's buffer never is.
func FrameBuffered(r *bufio.Reader) bool {
	n := r.Buffered()
	if n < 4 {
		return false
	}
	hdr, _ := r.Peek(4)
	word := binary.BigEndian.Uint32(hdr)
	size := 4 + int(word&^uint32(tcFlag))
	if word&tcFlag != 0 {
		size += 1 + tcSize
	}
	return n >= size
}
