package hla

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"net"
	"time"

	"github.com/mobilegrid/adf/internal/obs"
	"github.com/mobilegrid/adf/internal/wire"
)

// Client is a remote federate speaking the TCP RTI protocol. It presents
// the same service surface as the in-process Federate. A Client is not
// safe for concurrent use: one goroutine drives the federate, exactly
// like an HLA federate process.
//
// Every request but SendInteraction is a round trip whose error is its
// own. SendInteraction is pipelined: it returns once the interaction is
// buffered, and the server's verdict arrives later. Consecutive sends
// of one class and one timestamp form a run that leaves as one frame,
// acked once (see SendInteraction). A rejection there is returned by
// the next synchronous call (any other request, or Close) after that
// call's own reply has been read and applied; when that call fails
// too, both errors are joined. errors.Is holds for the server's
// sentinels either way.
//
// A receive frame carries a run of interactions too, and the
// ambassador gets one ReceiveInteraction per interaction, in send
// order. Each delivered Values is the ambassador's own map; the values
// of all the maps of one frame share one new backing array, each value
// capped at its own length, so keeping any one of them keeps that
// array. Everything else a Client decodes or encodes goes through
// buffers it owns once and reuses for every frame.
type Client struct {
	conn *deadlineConn
	// r and bw buffer the connection: callback frames are read in
	// socket-sized chunks, and a synchronous request leaves in one write
	// together with the pipelined sends buffered before it.
	r  *bufio.Reader
	bw *bufio.Writer
	// enc encodes every request; each frame is written to bw before the
	// next is encoded. rbuf is the buffer each incoming frame is read
	// into (see retain), and names interns the class and parameter
	// names of the callbacks read there.
	enc   wire.Encoder
	rbuf  []byte
	names wire.Interner

	// run is the open run of pipelined sends, an interaction frame
	// being built: runN blocks of class runClass at time runTS so far,
	// its count at runCount. runTC is its trace context, set by the
	// first traced send in it. runN is 0 when no run is open.
	run      wire.Encoder
	runClass string
	runTS    float64
	runN     int
	runCount int
	runTC    wire.TraceContext

	amb    Ambassador
	handle FederateHandle
	name   string
	joined bool
	closed bool

	// The local send check (checkSend) runs on the client's own record:
	// the interaction classes it published, its last granted time and
	// its lookahead.
	published map[string]bool
	granted   float64
	lookahead float64
	// pending counts the acks of buffered runs not yet read, one per
	// frame; deferred is the first error among the acks already read,
	// held for the next synchronous call.
	pending  int
	deferred error
}

// pipelineWindow bounds the acks buffered runs may owe, one per frame:
// at that many the next run first flushes and drains them. The server
// holds its replies until its next read would block, so the window's
// acks must fit its write buffer — at 64 bytes each (an ok ack is 5,
// an error ack carries its message) they do, and a burst of sends never
// leaves both ends blocked writing.
const pipelineWindow = ioBufferSize / 64

// maxRunFrame caps the payload of an interaction frame that carries a
// run of more than one send: with the largest frame header it fits the
// I/O buffers. A single send larger than that still leaves as a run of
// one.
const maxRunFrame = ioBufferSize - wire.MaxHeaderSize

// errNotJoined rejects a request made before Join or after Resign.
var errNotJoined = errors.New("hla: not joined")

// Dial connects to a TCP RTI server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("hla: dial: %w", err)
	}
	return newClient(conn), nil
}

// newClient wraps an established connection.
func newClient(conn net.Conn) *Client {
	dc := &deadlineConn{Conn: conn}
	return &Client{
		conn: dc,
		r:    bufio.NewReaderSize(dc, ioBufferSize),
		bw:   bufio.NewWriterSize(dc, ioBufferSize),
	}
}

// Close tears down the connection. A joined federate should Resign
// first. Close first flushes the buffered sends and reads their acks
// (closing a socket with unread replies resets it, which could discard
// the sends), so a send that returned nil reaches the RTI; it returns
// a server rejection still owed, like a synchronous call would.
func (c *Client) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	err := c.drain()
	if err == nil {
		err, c.deferred = c.deferred, nil
	}
	if cerr := c.conn.Close(); err == nil {
		err = cerr
	}
	return err
}

// Handle returns the federate handle assigned at join.
func (c *Client) Handle() FederateHandle { return c.handle }

// SetIOTimeouts bounds the connection's I/O: read bounds each socket
// read while awaiting a reply or callback, write bounds each socket
// write — the flush that sends a request with the sends buffered before
// it, or a run of sends that spills the buffer. Both directions are
// buffered, so one socket operation can carry many frames. Zero (the
// default) means no deadline. Like the rest of Client, not safe for
// concurrent use.
func (c *Client) SetIOTimeouts(read, write time.Duration) {
	c.conn.setTimeouts(read, write)
}

// encode starts the next request frame, of type typ, in c.enc.
func (c *Client) encode(typ byte) *wire.Encoder {
	c.enc.Reset()
	c.enc.PutByte(typ)
	return &c.enc
}

// request sends the frame in c.enc and awaits the terminal response,
// recording the request's encode (entry to socket write) and round-trip
// (write to terminal read) phases and — when tracing is on — the client
// op span that roots the request's cross-process trace. start is the
// op-entry clock token (obs.RPCClock at method entry, before payload
// encoding); 0 disables all recording and sends the legacy untraced
// frame.
//
// The payload is non-nil exactly when the request itself succeeded; the
// error may then still carry a deferred send rejection (see await), so
// callers apply a non-nil payload before returning the error.
func (c *Client) request(op obs.RPCOp, terminal byte, start int64) ([]byte, error) {
	if err := c.closeRun(); err != nil {
		return nil, err
	}
	var tc wire.TraceContext
	if start != 0 {
		tc = obs.NewTraceContext(start)
	}
	err := wire.WriteFrameTC(c.bw, c.enc.Bytes(), tc)
	if err == nil {
		err = c.bw.Flush()
	}
	if err != nil {
		obs.RTIError(obs.SideClient, classifyErr(err))
		return nil, err
	}
	if start != 0 {
		wrote := obs.RPCClock()
		obs.ObserveRPC(obs.PhaseEncode, op, start, wrote)
		payload, err := c.await(terminal)
		if payload != nil {
			end := obs.RPCClock()
			obs.ObserveRPC(obs.PhaseRTT, op, wrote, end)
			obs.RecordRPC(obs.KindClientOp, op, tc, start, end)
		}
		return payload, err
	}
	return c.await(terminal)
}

// appendRun adds a send that passed the local check to the open run,
// first closing the run when the class or timestamp changes or the
// block would take the frame past maxRunFrame. Tracing records the
// encode phase and the send's own client op span, from op entry to the
// append, under the run's trace ID: the frame carries the run's
// context, so every send in it links to the delivery. There is no
// round-trip phase.
func (c *Client) appendRun(class string, params Values, ts float64, start int64) error {
	if c.runN > 0 && (class != c.runClass || math.Float64bits(ts) != math.Float64bits(c.runTS) ||
		c.run.Len()+wire.ValuesSize(params) > maxRunFrame) {
		if err := c.closeRun(); err != nil {
			return err
		}
	}
	if c.runN == 0 {
		c.run.Reset()
		c.run.PutByte(msgInteraction)
		c.run.PutString(class)
		c.run.PutFloat64(ts)
		c.runCount = c.run.Len()
		c.run.PutCount(0)
		c.runClass, c.runTS = class, ts
	}
	c.run.PutValues(params)
	c.runN++
	if start != 0 {
		tc := c.runTC
		if tc.Valid() {
			tc.SpanID = obs.NextSpanID()
		} else {
			tc = obs.NewTraceContext(start)
			c.runTC = tc
		}
		end := obs.RPCClock()
		obs.ObserveRPC(obs.PhaseEncode, obs.OpInteraction, start, end)
		obs.RecordRPC(obs.KindClientOp, obs.OpInteraction, tc, start, end)
	}
	return nil
}

// closeRun buffers the open run, if any, as one interaction frame
// without flushing it or reading its ack, which a later drain or await
// reads.
func (c *Client) closeRun() error {
	if c.runN == 0 {
		return nil
	}
	n, tc := c.runN, c.runTC
	c.runN, c.runTC = 0, wire.TraceContext{}
	if c.pending >= pipelineWindow {
		if err := c.drain(); err != nil {
			return err
		}
	}
	c.run.SetCount(c.runCount, n)
	payload := c.run.Bytes()
	if err := wire.WriteFrameTC(c.bw, payload, tc); err != nil {
		obs.RTIError(obs.SideClient, classifyErr(err))
		return err
	}
	c.pending++
	return nil
}

// drain closes the open run, flushes the buffered runs and reads their
// acks, dispatching any callbacks among them and keeping the first
// rejection in c.deferred. It returns only transport and protocol
// failures.
func (c *Client) drain() error {
	if err := c.closeRun(); err != nil {
		return err
	}
	if c.pending == 0 {
		return nil
	}
	if err := c.bw.Flush(); err != nil {
		obs.RTIError(obs.SideClient, classifyErr(err))
		return err
	}
	return c.readAcks()
}

// readAcks reads the acks of the flushed runs (see drain).
func (c *Client) readAcks() error {
	for c.pending > 0 {
		_, rejected, err := c.reply(msgOK)
		if err != nil {
			return err
		}
		c.pending--
		if c.deferred == nil {
			c.deferred = rejected
		}
	}
	return nil
}

// Join joins a federation with the given lookahead. Callbacks are
// delivered to amb during TimeAdvanceRequest and Tick.
func (c *Client) Join(federation, name string, lookahead float64, amb Ambassador) error {
	start := obs.RPCClock()
	if amb == nil {
		return errors.New("hla: nil ambassador")
	}
	if c.joined {
		return errors.New("hla: already joined")
	}
	c.amb = amb
	c.name = name
	e := c.encode(msgJoin)
	e.PutString(federation)
	e.PutString(name)
	e.PutFloat64(lookahead)
	payload, err := c.request(obs.OpJoin, msgJoined, start)
	if err != nil {
		return err
	}
	d := wire.NewDecoder(payload)
	d.Byte() // type
	c.handle = FederateHandle(d.Int64())
	if d.Err() != nil {
		return d.Err()
	}
	c.joined = true
	c.published = make(map[string]bool)
	c.granted = 0
	c.lookahead = lookahead
	return nil
}

// await reads the acks of the runs written before this request, then
// its terminal frame, dispatching callbacks throughout.
// The payload is the terminal frame's, nil when the request failed. The
// error is the request's own, the first deferred send rejection, or
// both joined; the rejection is reported only once the terminal frame
// has been read, so the stream stays in step for the next call.
func (c *Client) await(terminal byte) ([]byte, error) {
	if err := c.readAcks(); err != nil {
		return nil, err
	}
	payload, rejected, err := c.reply(terminal)
	if err == nil {
		err = rejected
	}
	if c.deferred != nil {
		err, c.deferred = errors.Join(c.deferred, err), nil
	}
	return payload, err
}

// reply reads frames, dispatching callbacks to the ambassador, until a
// frame of the terminal type or an error reply arrives. It returns the
// terminal frame's payload, or the server's rejection as rejected; err
// reports a transport or protocol failure.
func (c *Client) reply(terminal byte) (payload []byte, rejected, err error) {
	for {
		payload, rtc, err := wire.ReadFrameInto(c.r, c.rbuf)
		if err != nil {
			obs.RTIError(obs.SideClient, classifyErr(err))
			return nil, nil, fmt.Errorf("hla: connection lost: %w", err)
		}
		c.rbuf = retain(payload)
		rstart := obs.RPCClock()
		d := wire.NewDecoder(payload)
		typ := d.Byte()
		switch typ {
		case msgError:
			code := d.Byte()
			msg := d.String()
			if d.Err() != nil {
				return nil, nil, d.Err()
			}
			return nil, codeError(code, msg), nil
		case terminal:
			return payload, nil, nil
		case msgReceive:
			class := d.Name(&c.names)
			t := d.Float64()
			d.OwnValuesRun(d.Count(), &c.names, func(v map[string][]byte) {
				c.amb.ReceiveInteraction(class, Values(v), t)
			})
			if d.Err() != nil {
				return nil, nil, d.Err()
			}
			if rstart != 0 {
				rend := obs.RPCClock()
				obs.RecordRPC(obs.KindClientRecv, obs.OpInteraction, obs.ChildContext(rtc), rstart, rend)
				obs.ObserveFreshness(obs.FreshRecv, rtc.OriginNS, rend)
			}
		case msgAnnounceSync:
			label := d.String()
			tag := d.Bytes()
			if d.Err() != nil {
				return nil, nil, d.Err()
			}
			if sync, ok := c.amb.(SyncAmbassador); ok {
				sync.AnnounceSynchronizationPoint(label, tag)
			}
		case msgFederationSynced:
			label := d.String()
			if d.Err() != nil {
				return nil, nil, d.Err()
			}
			if sync, ok := c.amb.(SyncAmbassador); ok {
				sync.FederationSynchronized(label)
			}
		case msgGrant:
			// A grant can only be terminal (requested via TAR); any other
			// appearance is a protocol violation.
			return nil, nil, fmt.Errorf("hla: unexpected grant frame")
		default:
			return nil, nil, fmt.Errorf("hla: unexpected frame type %d", typ)
		}
	}
}

// call sends the request in c.enc and waits for the ok acknowledgement.
// start is the op-entry clock token (see request).
func (c *Client) call(op obs.RPCOp, start int64) error {
	if !c.joined {
		return errNotJoined
	}
	_, err := c.request(op, msgOK, start)
	return err
}

// PublishInteractionClass mirrors Federate.PublishInteractionClass.
func (c *Client) PublishInteractionClass(class string) error {
	start := obs.RPCClock()
	e := c.encode(msgPublishInteraction)
	e.PutString(class)
	if !c.joined {
		return errNotJoined
	}
	payload, err := c.request(obs.OpOther, msgOK, start)
	if payload != nil {
		c.published[class] = true
	}
	return err
}

// SubscribeInteractionClass mirrors Federate.SubscribeInteractionClass.
func (c *Client) SubscribeInteractionClass(class string) error {
	start := obs.RPCClock()
	e := c.encode(msgSubscribeInteraction)
	e.PutString(class)
	return c.call(obs.OpOther, start)
}

// SendInteraction mirrors Federate.SendInteraction, pipelined. A send
// that passes the local check — joined, the class published by this
// client, ts a number no earlier than the last grant plus lookahead —
// is added to the open run and returns nil without waiting for an ack.
// The run holds consecutive such sends of one class and one timestamp
// and leaves as one frame, acked once; it closes when the class or the
// timestamp changes, when the next send would take the frame past
// maxRunFrame, before any other request, and on a full window or
// Close. If the server still rejects the run, the next synchronous call
// returns the rejection (see Client). A send the local check rejects
// goes as a round trip of its own instead, so its error is the
// server's own and returns now.
func (c *Client) SendInteraction(class string, params Values, ts float64) error {
	start := obs.RPCClock()
	if c.joined && checkSend(class, c.published[class], ts, c.granted, c.lookahead) == nil {
		return c.appendRun(class, params, ts, start)
	}
	e := c.encode(msgInteraction)
	e.PutString(class)
	e.PutFloat64(ts)
	e.PutCount(1)
	e.PutValues(params)
	return c.call(obs.OpInteraction, start)
}

// TimeAdvanceRequest mirrors Federate.TimeAdvanceRequest: it blocks,
// delivering callbacks, until the grant arrives.
func (c *Client) TimeAdvanceRequest(t float64) error {
	start := obs.RPCClock()
	if !c.joined {
		return errNotJoined
	}
	e := c.encode(msgTAR)
	e.PutFloat64(t)
	payload, err := c.request(obs.OpAdvance, msgGrant, start)
	if payload == nil {
		return err
	}
	d := wire.NewDecoder(payload)
	d.Byte()
	granted := d.Float64()
	if d.Err() != nil {
		return d.Err()
	}
	c.granted = granted
	c.amb.TimeAdvanceGrant(granted)
	return err
}

// Tick asks the server to flush pending receive-ordered callbacks
// (sync-point announcements and synchronizations) and delivers them.
func (c *Client) Tick() error {
	start := obs.RPCClock()
	c.encode(msgTick)
	return c.call(obs.OpTick, start)
}

// RegisterSynchronizationPoint mirrors
// Federate.RegisterSynchronizationPoint. The registrant's own
// announcement is delivered before this call returns.
func (c *Client) RegisterSynchronizationPoint(label string, tag []byte) error {
	start := obs.RPCClock()
	e := c.encode(msgRegisterSync)
	e.PutString(label)
	e.PutBytes(tag)
	return c.call(obs.OpSync, start)
}

// SynchronizationPointAchieved mirrors
// Federate.SynchronizationPointAchieved. With event logging on, the
// exchange doubles as a clock-alignment probe: the client stamps both
// endpoints and emits a sync_probe event the cross-process merger pairs
// with the server's sync_mark to estimate the clock offset (NTP-style:
// the mark should fall near the probe's midpoint).
func (c *Client) SynchronizationPointAchieved(label string) error {
	start := obs.RPCClock()
	t0 := obs.Events.Now()
	e := c.encode(msgSyncAchieved)
	e.PutString(label)
	err := c.call(obs.OpSync, start)
	if t1 := obs.Events.Now(); err == nil && t0 != 0 && t1 != 0 {
		obs.Events.Emit("sync_probe",
			obs.S("label", label), obs.S("fed", c.name),
			obs.F("t0_ns", float64(t0-obs.EpochNanos())),
			obs.F("t1_ns", float64(t1-obs.EpochNanos())))
	}
	return err
}

// Resign leaves the federation.
func (c *Client) Resign() error {
	start := obs.RPCClock()
	if !c.joined {
		return errNotJoined
	}
	c.encode(msgResign)
	payload, err := c.request(obs.OpResign, msgOK, start)
	if payload != nil {
		c.joined = false
	}
	return err
}
