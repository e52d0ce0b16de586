package hla

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/mobilegrid/adf/internal/obs"
	"github.com/mobilegrid/adf/internal/wire"
)

// ioBufferSize is the read and write buffer of each end of a federate
// connection: large enough that a time advance's whole TSO batch of LU
// callbacks leaves the server in a few writes.
const ioBufferSize = 64 << 10

// retain returns the buffer a connection keeps for its next frame read
// after reading payload into it: the payload's array while it is at
// most ioBufferSize, so one large frame does not stay pinned.
func retain(payload []byte) []byte {
	if cap(payload) > ioBufferSize {
		return nil
	}
	return payload
}

// deadlineConn is a federate connection whose every socket read and
// write is bounded by a timeout: Read and Write set the deadline just
// before the call, so the bound covers that one operation. Both ends
// read and write only through bufio over it, so a deadline is set
// exactly when I/O reaches the socket. A zero timeout sets nothing, and
// the operation blocks as long as it takes — a time advance
// legitimately waits until the rest of the federation catches up.
type deadlineConn struct {
	net.Conn
	read, write time.Duration
}

func (c *deadlineConn) Read(p []byte) (int, error) {
	if c.read > 0 {
		_ = c.Conn.SetReadDeadline(time.Now().Add(c.read)) //adf:allow determinism — wall-clock deadline for network I/O, not simulation state
	}
	return c.Conn.Read(p)
}

func (c *deadlineConn) Write(p []byte) (int, error) {
	if c.write > 0 {
		_ = c.Conn.SetWriteDeadline(time.Now().Add(c.write)) //adf:allow determinism — wall-clock deadline for network I/O, not simulation state
	}
	return c.Conn.Write(p)
}

// setTimeouts changes the timeouts. Turning one off clears the deadline
// the last bounded operation left on the socket.
func (c *deadlineConn) setTimeouts(read, write time.Duration) {
	if c.read > 0 && read <= 0 {
		_ = c.Conn.SetReadDeadline(time.Time{})
	}
	if c.write > 0 && write <= 0 {
		_ = c.Conn.SetWriteDeadline(time.Time{})
	}
	c.read, c.write = read, write
}

// classifyErr maps a transport failure to its obs error class: deadline
// expiries (SetIOTimeouts) are timeouts, wire codec sentinels are
// decode failures, and everything else — clean EOF, reset, closed
// listener — counts as a peer hangup.
func classifyErr(err error) obs.ErrClass {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return obs.ErrTimeout
	}
	if errors.Is(err, wire.ErrShortBuffer) || errors.Is(err, wire.ErrFrameTooLarge) || errors.Is(err, wire.ErrMalformed) {
		return obs.ErrDecode
	}
	return obs.ErrEOF
}

// opOfMsg maps a request frame type to its latency label.
func opOfMsg(typ byte) obs.RPCOp {
	switch typ {
	case msgJoin:
		return obs.OpJoin
	case msgInteraction:
		return obs.OpInteraction
	case msgTAR:
		return obs.OpAdvance
	case msgTick:
		return obs.OpTick
	case msgRegisterSync, msgSyncAchieved:
		return obs.OpSync
	case msgResign:
		return obs.OpResign
	default:
		return obs.OpOther
	}
}

// Message types of the TCP RTI protocol: client requests, then server
// responses and callbacks. The gaps are retired codes (object
// management and event-driven time advance), which the server rejects
// like any unknown type.
const (
	msgJoin                 byte = 1
	msgPublishInteraction   byte = 4
	msgSubscribeInteraction byte = 5
	msgInteraction          byte = 8
	msgTAR                  byte = 10
	msgTick                 byte = 11
	msgResign               byte = 12
	msgRegisterSync         byte = 13
	msgSyncAchieved         byte = 14

	msgJoined           byte = 16
	msgOK               byte = 18
	msgError            byte = 19
	msgReceive          byte = 22
	msgGrant            byte = 24
	msgAnnounceSync     byte = 25
	msgFederationSynced byte = 26
)

// wireErrors holds, at its code, each sentinel error carried across the
// wire, so errors.Is keeps working on the client side. Code 0 is an
// error without a sentinel; the gaps are retired codes.
var wireErrors = [...]error{
	1:  ErrFederationExists,
	2:  ErrNoFederation,
	4:  ErrResigned,
	5:  ErrNotPublished,
	8:  ErrInvalidTime,
	9:  ErrPendingAdvance,
	10: ErrSyncPointExists,
	11: ErrNoSyncPoint,
}

func errorCode(err error) byte {
	for code, sentinel := range wireErrors {
		if sentinel != nil && errors.Is(err, sentinel) {
			return byte(code)
		}
	}
	return 0
}

func codeError(code byte, msg string) error {
	if int(code) >= len(wireErrors) || wireErrors[code] == nil {
		return errors.New(msg)
	}
	return fmt.Errorf("%w: %s", wireErrors[code], msg)
}

// Server exposes an RTI's federations over TCP. Each connection carries
// one federate.
type Server struct {
	rti *RTI
	ln  net.Listener

	// readTimeout bounds each socket read and writeTimeout each socket
	// write (a flush) on federate connections. Zero means no deadline
	// (block forever, the HLA default). Set via SetIOTimeouts before
	// Serve.
	readTimeout  time.Duration
	writeTimeout time.Duration

	mu sync.Mutex

	conns map[net.Conn]bool

	closed bool

	wg sync.WaitGroup
}

// NewServer listens on addr (e.g. "127.0.0.1:0") and serves the given
// RTI. Call Serve to start accepting.
func NewServer(rti *RTI, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("hla: listen: %w", err)
	}
	return newServer(rti, ln), nil
}

// newServer serves rti on an open listener.
func newServer(rti *RTI, ln net.Listener) *Server {
	return &Server{rti: rti, ln: ln, conns: make(map[net.Conn]bool)}
}

// Addr returns the listening address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// RTI returns the RTI this server exposes.
func (s *Server) RTI() *RTI { return s.rti }

// SetIOTimeouts bounds the socket I/O on federate connections: read
// bounds each socket read of requests, write each flush of buffered
// replies and callbacks (and any write that spills a full buffer).
// Frames are buffered at both ends, so a deadline covers one socket
// operation, which may carry many frames. Zero (the default) means no
// deadline. Call before Serve: the values are read by the handler
// goroutines without locking.
func (s *Server) SetIOTimeouts(read, write time.Duration) {
	s.readTimeout = read
	s.writeTimeout = write
}

// Serve accepts connections until Close. It always returns a non-nil
// error; after Close the error wraps net.ErrClosed.
func (s *Server) Serve() error {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return fmt.Errorf("hla: accept: %w", err)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return net.ErrClosed
		}
		s.conns[conn] = true
		s.wg.Add(1)
		s.mu.Unlock()
		obs.RTIConns.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// Close stops accepting, closes every live connection and waits for the
// handlers to finish. Close is idempotent: subsequent calls wait for
// the drain and return nil.
func (s *Server) Close() error {
	s.mu.Lock()
	first := !s.closed
	s.closed = true
	for conn := range s.conns {
		_ = conn.Close()
	}
	s.mu.Unlock()
	var err error
	if first {
		err = s.ln.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) dropConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	obs.RTIConns.Add(-1)
	_ = conn.Close()
}

// Shutdown closes the server gracefully: it stops accepting new
// connections first, then closes every live federate connection (each
// handler resigns its federate on the way out) and waits for the
// handlers to drain. Unlike Close, the listener is gone before any
// federate is dropped, so no new work races the teardown. Shutdown is
// idempotent: only the first call closes the listener; later calls
// (including ones racing the first) wait for the drain and return nil.
func (s *Server) Shutdown() error {
	s.mu.Lock()
	first := !s.closed
	s.closed = true
	s.mu.Unlock()
	var err error
	if first {
		err = s.ln.Close()
	}
	s.mu.Lock()
	for conn := range s.conns {
		_ = conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// connWriter buffers the frames the request handler and the RTI
// callback path write to one connection. Frames reach the socket when
// the buffer fills or on flush, and the handler flushes whenever it is
// about to block — before a read that finds no whole request buffered,
// before waiting on an empty mailbox in a time advance, and on exit —
// so a federate never waits on a frame the server holds.
type connWriter struct {
	mu sync.Mutex

	bw *bufio.Writer

	// enc encodes every frame but the constant ok ack: replies, errors
	// and the callbacks of the remote ambassador.
	enc wire.Encoder

	err error
}

// okFrame is the payload of the ok ack.
var okFrame = []byte{msgOK}

// frame encodes one frame with build and writes it carrying tc (zero
// for untraced frames — the wire layer then emits the legacy framing).
func (w *connWriter) frame(tc wire.TraceContext, build func(e *wire.Encoder)) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return
	}
	w.enc.Reset()
	build(&w.enc)
	w.write(w.enc.Bytes(), tc)
}

// writeOK writes the ok ack.
func (w *connWriter) writeOK() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return
	}
	w.write(okFrame, wire.TraceContext{})
}

// write buffers one frame. Callers must hold w.mu and have checked
// w.err.
func (w *connWriter) write(payload []byte, tc wire.TraceContext) {
	w.err = wire.WriteFrameTC(w.bw, payload, tc)
	if w.err != nil {
		// Only the sticky transition is counted; later writes short-circuit.
		obs.RTIError(obs.SideServer, classifyErr(w.err))
		return
	}
	obs.WireFramesOut.Inc()
	obs.WireBytesOut.Add(uint64(len(payload)))
}

// flush writes the buffered frames to the socket. It returns the
// writer's sticky error, the first write that failed.
func (w *connWriter) flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil || w.bw.Buffered() == 0 {
		return w.err
	}
	if w.err = w.bw.Flush(); w.err != nil {
		obs.RTIError(obs.SideServer, classifyErr(w.err))
	}
	return w.err
}

// remoteAmbassador relays ambassador callbacks to the remote client.
type remoteAmbassador struct {
	w *connWriter
}

var (
	_ Ambassador = (*remoteAmbassador)(nil)
	_ flusher    = (*remoteAmbassador)(nil)
)

// flush implements flusher: a federate blocking in a time advance first
// sends the callbacks delivered so far. A failed write stays in the
// writer, and the handler drops the connection at its next flush.
func (a *remoteAmbassador) flush() { _ = a.w.flush() }

// ReceiveInteraction implements Ambassador. The RTI hands this
// ambassador each run of interactions as its shared blocks
// (receiveRun).
func (a *remoteAmbassador) ReceiveInteraction(class string, params Values, t float64) {
	a.receiveRun(class, wire.AppendValues(nil, params), 1, t)
}

// receiveRun implements runReceiver: the run's n blocks go into one
// receive frame as they are.
func (a *remoteAmbassador) receiveRun(class string, run []byte, n int, t float64) {
	a.w.frame(wire.TraceContext{}, func(e *wire.Encoder) { putReceive(e, class, run, n, t) })
}

// putReceive encodes the receive frame of a run of n interactions of
// one class and time around their values blocks, the layout of the
// interaction request frame it came in.
func putReceive(e *wire.Encoder, class string, run []byte, n int, t float64) {
	e.PutByte(msgReceive)
	e.PutString(class)
	e.PutFloat64(t)
	e.PutCount(n)
	e.PutRaw(run)
}

func (a *remoteAmbassador) TimeAdvanceGrant(t float64) {
	a.w.frame(wire.TraceContext{}, func(e *wire.Encoder) {
		e.PutByte(msgGrant)
		e.PutFloat64(t)
	})
}

var (
	_ SyncAmbassador  = (*remoteAmbassador)(nil)
	_ tracedDeliverer = (*remoteAmbassador)(nil)
	_ runReceiver     = (*remoteAmbassador)(nil)
)

// deliverTraced forwards a traced interaction run to the remote client
// with its trace context (a fresh hop span ID) in the frame header,
// recording the run's TSO-queue residency, the delivery fan-out span,
// and the LU's delivery freshness. Trace-context forwarding itself is
// not gated — a server with recording off still propagates the
// sender's context so downstream hops can link — while every recording
// call sits behind a clock token that is 0 when the gate is off.
func (a *remoteAmbassador) deliverTraced(c callback) {
	start := obs.RPCClock()
	if start != 0 {
		obs.ObserveRPC(obs.PhaseQueue, obs.OpInteraction, c.enqueuedNS, start)
	}
	tc := c.tc
	if tc.Valid() {
		tc = obs.ChildContext(tc)
	}
	a.w.frame(tc, func(e *wire.Encoder) { putReceive(e, c.class, c.run, c.n, c.time) })
	if start != 0 {
		end := obs.RPCClock()
		obs.ObserveRPC(obs.PhaseDeliver, obs.OpInteraction, start, end)
		obs.RecordRPC(obs.KindServerDeliver, obs.OpInteraction, tc, start, end)
		obs.ObserveFreshness(obs.FreshDeliver, tc.OriginNS, end)
	}
}

// AnnounceSynchronizationPoint implements SyncAmbassador.
func (a *remoteAmbassador) AnnounceSynchronizationPoint(label string, tag []byte) {
	a.w.frame(wire.TraceContext{}, func(e *wire.Encoder) {
		e.PutByte(msgAnnounceSync)
		e.PutString(label)
		e.PutBytes(tag)
	})
}

// FederationSynchronized implements SyncAmbassador.
func (a *remoteAmbassador) FederationSynchronized(label string) {
	a.w.frame(wire.TraceContext{}, func(e *wire.Encoder) {
		e.PutByte(msgFederationSynced)
		e.PutString(label)
	})
}

func writeError(w *connWriter, err error) {
	w.frame(wire.TraceContext{}, func(e *wire.Encoder) {
		e.PutByte(msgError)
		e.PutByte(errorCode(err))
		e.PutString(err.Error())
	})
}

// handle runs one connection's request loop: a join frame first, then
// RTI service requests until the connection drops or the client resigns.
func (s *Server) handle(conn net.Conn) {
	defer s.dropConn(conn)
	dc := &deadlineConn{Conn: conn, read: s.readTimeout, write: s.writeTimeout}
	r := bufio.NewReaderSize(dc, ioBufferSize)
	w := &connWriter{bw: bufio.NewWriterSize(dc, ioBufferSize)}
	defer w.flush()
	// Each request is read into buf (see retain), and names are decoded
	// through names. An interaction frame's run of parameter blocks is
	// passed on as it came, aliasing buf (canonicalised into canon, with
	// scratch as the reused map, when a sender's keys are not in
	// order). This is safe because the RTI copies the run into the
	// sender's arena under fed.mu before the call returns, so nothing
	// refers to buf when the next request is read into it.
	var buf []byte
	var names wire.Interner
	var canon wire.Encoder
	scratch := make(Values)

	var fed *Federate
	defer func() {
		if fed != nil {
			// Unblock the rest of the federation if the client vanished.
			_ = fed.Resign()
		}
	}()

	for {
		// Flush only when the next read would block: a reply is never
		// held while the handler waits, and the acks of a pipelined
		// burst leave together. A peer that cannot take its replies
		// (a write failed or timed out) is dropped.
		if !wire.FrameBuffered(r) && w.flush() != nil {
			return
		}
		payload, rtc, err := wire.ReadFrameInto(r, buf)
		if err != nil {
			obs.RTIError(obs.SideServer, classifyErr(err))
			return
		}
		buf = retain(payload)
		obs.WireFramesIn.Inc()
		obs.WireBytesIn.Add(uint64(len(payload)))
		d := wire.NewDecoder(payload)
		typ := d.Byte()
		hstart := obs.RPCClock()

		if fed == nil {
			if typ != msgJoin {
				writeError(w, errors.New("hla: join required first"))
				return
			}
			federation := d.String()
			name := d.String()
			lookahead := d.Float64()
			if d.Err() != nil {
				writeError(w, d.Err())
				return
			}
			f, err := s.rti.Join(federation, name, lookahead, &remoteAmbassador{w: w})
			if err != nil {
				writeError(w, err)
				continue
			}
			fed = f
			w.frame(wire.TraceContext{}, func(e *wire.Encoder) {
				e.PutByte(msgJoined)
				e.PutInt64(int64(f.Handle()))
			})
			continue
		}

		// Case bodies use `break` (not `continue`) on early exits so the
		// per-request handle-phase recording below the switch always runs.
		done := false
		switch typ {
		case msgPublishInteraction:
			class := d.String()
			s.respond(w, d.Err(), func() error { return fed.PublishInteractionClass(class) })
		case msgSubscribeInteraction:
			class := d.String()
			s.respond(w, d.Err(), func() error { return fed.SubscribeInteractionClass(class) })
		case msgInteraction:
			// One frame carries a run of interactions of one class and
			// time: one send, one ack, one queue entry per receiver.
			class := d.Name(&names)
			ts := d.Float64()
			run, n := d.ValuesRun(&canon, scratch, &names)
			s.respond(w, d.Err(), func() error { return fed.sendInteraction(class, run, n, nil, ts, rtc) })
		case msgTAR:
			t := d.Float64()
			if d.Err() != nil {
				writeError(w, d.Err())
				break
			}
			// The advance blocks; callbacks (ending with the grant)
			// stream to the client through the remote ambassador.
			if err := fed.TimeAdvanceRequest(t); err != nil {
				writeError(w, err)
			}
		case msgTick:
			fed.Tick()
			w.writeOK()
		case msgRegisterSync:
			label := d.String()
			tag := d.Bytes()
			if d.Err() != nil {
				writeError(w, d.Err())
				break
			}
			if err := fed.RegisterSynchronizationPoint(label, tag); err != nil {
				writeError(w, err)
				break
			}
			// Stream the registrant's own announcement before the ack so
			// the client sees announce-then-ok, as an in-process federate
			// would on its next Tick.
			fed.Tick()
			w.writeOK()
		case msgSyncAchieved:
			label := d.String()
			if d.Err() != nil {
				writeError(w, d.Err())
				break
			}
			// The sync mark is the server-side anchor of the client's
			// sync_probe pair: the merger estimates per-process clock
			// offsets from mark-versus-probe-midpoint differences.
			if tm := obs.Events.Now(); tm != 0 {
				obs.Events.Emit("sync_mark",
					obs.S("label", label), obs.S("fed", fed.Name()),
					obs.F("t_ns", float64(tm-obs.EpochNanos())))
			}
			if err := fed.SynchronizationPointAchieved(label); err != nil {
				writeError(w, err)
				break
			}
			fed.Tick()
			w.writeOK()
		case msgResign:
			err := fed.Resign()
			fed = nil
			s.respond(w, nil, func() error { return err })
			done = true
		default:
			writeError(w, fmt.Errorf("hla: unknown message type %d", typ))
		}
		if hstart != 0 {
			hend := obs.RPCClock()
			op := opOfMsg(typ)
			obs.ObserveRPC(obs.PhaseHandle, op, hstart, hend)
			obs.RecordRPC(obs.KindServerHandle, op, obs.ChildContext(rtc), hstart, hend)
		}
		if done {
			return
		}
	}
}

// respond runs op (unless decoding already failed) and writes ok/error.
func (s *Server) respond(w *connWriter, decodeErr error, op func() error) {
	if decodeErr != nil {
		writeError(w, decodeErr)
		return
	}
	if err := op(); err != nil {
		writeError(w, err)
		return
	}
	w.writeOK()
}
