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
// to WriteFrame. The header and context share one stack buffer and one
// Write call, keeping the traced path allocation-free.
func WriteFrameTC(w io.Writer, payload []byte, tc TraceContext) error {
	if !tc.Valid() {
		return WriteFrame(w, payload)
	}
	if len(payload) > MaxFrameSize {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(payload))
	}
	var hdr [5 + tcSize]byte
	binary.BigEndian.PutUint32(hdr[:4], tcFlag|uint32(len(payload)))
	hdr[4] = tcVersion
	tc.appendTo(hdr[5:5])
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("wire: write frame header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("wire: write frame payload: %w", err)
	}
	return nil
}

// ReadFrameTC reads one frame in either form, returning the payload and
// the trace context (zero for legacy frames).
func ReadFrameTC(r io.Reader) ([]byte, TraceContext, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, TraceContext{}, err
	}
	word := binary.BigEndian.Uint32(hdr[:])
	n := word &^ uint32(tcFlag)
	if n > MaxFrameSize {
		return nil, TraceContext{}, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	var tc TraceContext
	if word&tcFlag != 0 {
		var ext [1 + tcSize]byte
		if _, err := io.ReadFull(r, ext[:]); err != nil {
			return nil, TraceContext{}, fmt.Errorf("wire: read frame trace context: %w", err)
		}
		if ext[0] != tcVersion {
			return nil, TraceContext{}, fmt.Errorf("wire: unknown trace-context version %d", ext[0])
		}
		tc = decodeTC(ext[1:])
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, TraceContext{}, fmt.Errorf("wire: read frame payload: %w", err)
	}
	return payload, tc, nil
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
