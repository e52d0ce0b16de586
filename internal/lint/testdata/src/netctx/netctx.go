// Package netctx exercises deadline and shutdown discipline on network
// code: reads and writes with and without dominating deadline calls —
// direct conn methods and name-classified helpers (ReadFrame) — plus
// blocking channel sends inside handler loops, and I/O through bufio
// wrappers built over a conn. The fixture is loaded
// as a net package. Zero time.Time deadlines keep the fixture free of
// wall-clock reads; an explicit zero is exactly what the rule asks for.
package netctx

import (
	"bufio"
	"io"
	"net"
	"time"
)

// ReadFrame reads one frame; callers own the deadline policy (the
// wire.ReadFrame convention), and its name classifies call sites as
// reads.
func ReadFrame(conn net.Conn) ([]byte, error) {
	buf := make([]byte, 64)
	_, err := conn.Read(buf) //adf:allow netctx — callers own the deadline policy, as with wire.ReadFrame
	return buf, err
}

// probe calls the read helper with no deadline in this function: the
// dominance check is per-function, so the call site is flagged.
func probe(conn net.Conn) ([]byte, error) {
	return ReadFrame(conn)
}

// handle refreshes the read deadline before each helper read: clean.
func handle(conn net.Conn) error {
	for {
		_ = conn.SetReadDeadline(time.Time{})
		payload, err := ReadFrame(conn)
		if err != nil {
			return err
		}
		if len(payload) == 0 {
			return nil
		}
	}
}

// reply writes with no deadline anywhere in the function: flagged.
func reply(conn net.Conn, payload []byte) error {
	_, err := conn.Write(payload)
	return err
}

// sniff sets only the write deadline before a read — the kinds do not
// match: flagged.
func sniff(conn net.Conn) byte {
	_ = conn.SetWriteDeadline(time.Time{})
	one := make([]byte, 1)
	_, _ = conn.Read(one)
	return one[0]
}

// send covers both directions with a single SetDeadline: clean.
func send(conn net.Conn, payload []byte) error {
	_ = conn.SetDeadline(time.Time{})
	if _, err := conn.Write(payload); err != nil {
		return err
	}
	one := make([]byte, 1)
	_, err := conn.Read(one)
	return err
}

// writer serialises writes on a shared connection field.
type writer struct {
	conn net.Conn
}

// flush sets the write deadline on the field before writing: clean.
func (w *writer) flush(p []byte) error {
	_ = w.conn.SetWriteDeadline(time.Time{})
	_, err := w.conn.Write(p)
	return err
}

// flushRaw skips the deadline on the same field: flagged.
func (w *writer) flushRaw(p []byte) error {
	_, err := w.conn.Write(p)
	return err
}

// pump forwards frames with a bare send inside the loop — a stalled
// consumer wedges the handler: flagged.
func pump(conn net.Conn, out chan []byte) {
	for {
		_ = conn.SetReadDeadline(time.Time{})
		frame, err := ReadFrame(conn)
		if err != nil {
			return
		}
		out <- frame
	}
}

// pumpSelect makes the same send shutdown-selectable: clean.
func pumpSelect(conn net.Conn, out chan []byte, done chan struct{}) {
	for {
		_ = conn.SetReadDeadline(time.Time{})
		frame, err := ReadFrame(conn)
		if err != nil {
			return
		}
		select {
		case out <- frame:
		case <-done:
			return
		}
	}
}

// offer is a one-shot send outside any loop: clean.
func offer(out chan int) {
	out <- 1
}

// ReadFrameFrom reads one frame from any reader, such as a bufio.Reader
// over a conn; its name classifies call sites as reads.
func ReadFrameFrom(r io.Reader) ([]byte, error) {
	buf := make([]byte, 64)
	_, err := io.ReadFull(r, buf)
	return buf, err
}

// bufConn keeps buffered wrappers over its conn field.
type bufConn struct {
	conn net.Conn
	r    *bufio.Reader
	bw   *bufio.Writer
}

// newBufConn builds the wrappers: the constructors do no I/O, so no
// deadline is needed: clean.
func newBufConn(conn net.Conn) *bufConn {
	return &bufConn{conn: conn, r: bufio.NewReaderSize(conn, 4096), bw: bufio.NewWriter(conn)}
}

// next reads through the field wrapper after a read deadline on the
// wrapped conn: clean.
func (b *bufConn) next() ([]byte, error) {
	_ = b.conn.SetReadDeadline(time.Time{})
	return ReadFrameFrom(b.r)
}

// nextRaw reads through the field wrapper with no deadline: flagged.
func (b *bufConn) nextRaw() ([]byte, error) {
	return ReadFrameFrom(b.r)
}

// flush sets the write deadline before flushing the wrapper: clean.
// Buffered only inspects the buffer and needs no deadline.
func (b *bufConn) flush() error {
	if b.bw.Buffered() == 0 {
		return nil
	}
	_ = b.conn.SetWriteDeadline(time.Time{})
	return b.bw.Flush()
}

// flushRaw flushes the wrapper with no deadline: flagged.
func (b *bufConn) flushRaw() error {
	return b.bw.Flush()
}

// flushLate sets only a read deadline before the flush — the kinds do
// not match: flagged.
func (b *bufConn) flushLate() error {
	_ = b.conn.SetReadDeadline(time.Time{})
	return b.bw.Flush()
}

// peek reads through a local wrapper with no deadline: flagged.
func peek(conn net.Conn) (byte, error) {
	r := bufio.NewReader(conn)
	return r.ReadByte()
}

// peekBounded sets the read deadline on the wrapped conn first: clean.
func peekBounded(conn net.Conn) (byte, error) {
	r := bufio.NewReader(conn)
	_ = conn.SetReadDeadline(time.Time{})
	return r.ReadByte()
}
