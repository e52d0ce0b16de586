package hla

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"time"

	"github.com/mobilegrid/adf/internal/obs"
	"github.com/mobilegrid/adf/internal/wire"
)

// Client is a remote federate speaking the TCP RTI protocol. It presents
// the same service surface as the in-process Federate. A Client is not
// safe for concurrent use: one goroutine drives the federate, exactly
// like an HLA federate process.
type Client struct {
	conn net.Conn
	// r and bw buffer the connection: callback frames are read in
	// socket-sized chunks, and each request frame leaves in one write.
	r  *bufio.Reader
	bw *bufio.Writer

	amb    Ambassador
	handle FederateHandle
	name   string
	joined bool
	closed bool

	// readTimeout bounds each socket read and writeTimeout each request
	// flush. Zero means no deadline: a time advance legitimately blocks
	// until the rest of the federation catches up. Set via SetIOTimeouts.
	readTimeout  time.Duration
	writeTimeout time.Duration
}

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
	return &Client{
		conn: conn,
		r:    bufio.NewReaderSize(conn, ioBufferSize),
		bw:   bufio.NewWriterSize(conn, ioBufferSize),
	}
}

// Close tears down the connection. A joined federate should Resign first.
func (c *Client) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	return c.conn.Close()
}

// Handle returns the federate handle assigned at join.
func (c *Client) Handle() FederateHandle { return c.handle }

// SetIOTimeouts bounds the connection's I/O: read bounds each socket
// read while awaiting a reply or callback, write bounds the single flush
// that sends each request. Reads are buffered, so one socket read can
// carry many frames. Zero (the default) means no deadline. Like the rest
// of Client, not safe for concurrent use.
func (c *Client) SetIOTimeouts(read, write time.Duration) {
	c.readTimeout = read
	c.writeTimeout = write
}

// request sends one frame and awaits the terminal response, recording
// the request's encode (entry to socket write) and round-trip (write to
// terminal read) phases and — when tracing is on — the client op span
// that roots the request's cross-process trace. start is the op-entry
// clock token (obs.RPCClock at method entry, before payload encoding);
// 0 disables all recording and sends the legacy untraced frame.
func (c *Client) request(e *wire.Encoder, op obs.RPCOp, terminal byte, start int64) ([]byte, error) {
	var tc wire.TraceContext
	if start != 0 {
		tc = obs.NewTraceContext(start)
	}
	_ = c.conn.SetWriteDeadline(ioDeadline(c.writeTimeout))
	err := wire.WriteFrameTC(c.bw, e.Bytes(), tc)
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
		if err != nil {
			return nil, err
		}
		end := obs.RPCClock()
		obs.ObserveRPC(obs.PhaseRTT, op, wrote, end)
		obs.RecordRPC(obs.KindClientOp, op, tc, start, end)
		return payload, nil
	}
	return c.await(terminal)
}

// Join joins a federation as a time-regulating, time-constrained
// federate. Callbacks are delivered to amb during TimeAdvanceRequest and
// Tick.
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
	var e wire.Encoder
	e.PutByte(msgJoin)
	e.PutString(federation)
	e.PutString(name)
	e.PutFloat64(lookahead)
	payload, err := c.request(&e, obs.OpJoin, msgJoined, start)
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
	return nil
}

// await reads frames, dispatching callbacks to the ambassador, until a
// frame of the terminal type (or msgError) arrives. It returns the
// terminal frame's payload.
func (c *Client) await(terminal byte) ([]byte, error) {
	for {
		_ = c.conn.SetReadDeadline(ioDeadline(c.readTimeout))
		payload, rtc, err := wire.ReadFrameTC(c.r)
		if err != nil {
			obs.RTIError(obs.SideClient, classifyErr(err))
			return nil, fmt.Errorf("hla: connection lost: %w", err)
		}
		rstart := obs.RPCClock()
		d := wire.NewDecoder(payload)
		typ := d.Byte()
		switch typ {
		case msgError:
			code := d.Byte()
			msg := d.String()
			if d.Err() != nil {
				return nil, d.Err()
			}
			return nil, codeError(code, msg)
		case terminal:
			return payload, nil
		case msgDiscover:
			obj := ObjectHandle(d.Int64())
			class := d.String()
			name := d.String()
			if d.Err() != nil {
				return nil, d.Err()
			}
			c.amb.DiscoverObjectInstance(obj, class, name)
		case msgReflect:
			obj := ObjectHandle(d.Int64())
			t := d.Float64()
			values := Values(d.Values())
			if d.Err() != nil {
				return nil, d.Err()
			}
			c.amb.ReflectAttributeValues(obj, values, t)
			if rstart != 0 {
				rend := obs.RPCClock()
				obs.RecordRPC(obs.KindClientRecv, obs.OpUpdate, obs.ChildContext(rtc), rstart, rend)
				obs.ObserveFreshness(obs.FreshRecv, rtc.OriginNS, rend)
			}
		case msgReceive:
			class := d.String()
			t := d.Float64()
			values := Values(d.Values())
			if d.Err() != nil {
				return nil, d.Err()
			}
			c.amb.ReceiveInteraction(class, values, t)
			if rstart != 0 {
				rend := obs.RPCClock()
				obs.RecordRPC(obs.KindClientRecv, obs.OpInteraction, obs.ChildContext(rtc), rstart, rend)
				obs.ObserveFreshness(obs.FreshRecv, rtc.OriginNS, rend)
			}
		case msgRemove:
			obj := ObjectHandle(d.Int64())
			if d.Err() != nil {
				return nil, d.Err()
			}
			c.amb.RemoveObjectInstance(obj)
		case msgAnnounceSync:
			label := d.String()
			tag := d.Bytes()
			if d.Err() != nil {
				return nil, d.Err()
			}
			if sync, ok := c.amb.(SyncAmbassador); ok {
				sync.AnnounceSynchronizationPoint(label, tag)
			}
		case msgFederationSynced:
			label := d.String()
			if d.Err() != nil {
				return nil, d.Err()
			}
			if sync, ok := c.amb.(SyncAmbassador); ok {
				sync.FederationSynchronized(label)
			}
		case msgGrant:
			// A grant can only be terminal (requested via TAR); any other
			// appearance is a protocol violation.
			return nil, fmt.Errorf("hla: unexpected grant frame")
		default:
			return nil, fmt.Errorf("hla: unexpected frame type %d", typ)
		}
	}
}

// call sends a request and waits for the ok acknowledgement. start is
// the op-entry clock token (see request).
func (c *Client) call(e *wire.Encoder, op obs.RPCOp, start int64) error {
	if !c.joined {
		return errors.New("hla: not joined")
	}
	_, err := c.request(e, op, msgOK, start)
	return err
}

// PublishObjectClass mirrors Federate.PublishObjectClass.
func (c *Client) PublishObjectClass(class string, attributes []string) error {
	start := obs.RPCClock()
	var e wire.Encoder
	e.PutByte(msgPublishObject)
	e.PutString(class)
	e.PutStrings(attributes)
	return c.call(&e, obs.OpOther, start)
}

// SubscribeObjectClass mirrors Federate.SubscribeObjectClass.
func (c *Client) SubscribeObjectClass(class string, attributes []string) error {
	start := obs.RPCClock()
	var e wire.Encoder
	e.PutByte(msgSubscribeObject)
	e.PutString(class)
	e.PutStrings(attributes)
	return c.call(&e, obs.OpOther, start)
}

// PublishInteractionClass mirrors Federate.PublishInteractionClass.
func (c *Client) PublishInteractionClass(class string) error {
	start := obs.RPCClock()
	var e wire.Encoder
	e.PutByte(msgPublishInteraction)
	e.PutString(class)
	return c.call(&e, obs.OpOther, start)
}

// SubscribeInteractionClass mirrors Federate.SubscribeInteractionClass.
func (c *Client) SubscribeInteractionClass(class string) error {
	start := obs.RPCClock()
	var e wire.Encoder
	e.PutByte(msgSubscribeInteraction)
	e.PutString(class)
	return c.call(&e, obs.OpOther, start)
}

// RegisterObjectInstance mirrors Federate.RegisterObjectInstance.
func (c *Client) RegisterObjectInstance(class, name string) (ObjectHandle, error) {
	start := obs.RPCClock()
	if !c.joined {
		return 0, errors.New("hla: not joined")
	}
	var e wire.Encoder
	e.PutByte(msgRegister)
	e.PutString(class)
	e.PutString(name)
	payload, err := c.request(&e, obs.OpRegister, msgRegistered, start)
	if err != nil {
		return 0, err
	}
	d := wire.NewDecoder(payload)
	d.Byte()
	obj := ObjectHandle(d.Int64())
	return obj, d.Err()
}

// UpdateAttributeValues mirrors Federate.UpdateAttributeValues.
func (c *Client) UpdateAttributeValues(obj ObjectHandle, attrs Values, ts float64) error {
	start := obs.RPCClock()
	var e wire.Encoder
	e.PutByte(msgUpdate)
	e.PutInt64(int64(obj))
	e.PutFloat64(ts)
	e.PutValues(attrs)
	return c.call(&e, obs.OpUpdate, start)
}

// SendInteraction mirrors Federate.SendInteraction.
func (c *Client) SendInteraction(class string, params Values, ts float64) error {
	start := obs.RPCClock()
	var e wire.Encoder
	e.PutByte(msgInteraction)
	e.PutString(class)
	e.PutFloat64(ts)
	e.PutValues(params)
	return c.call(&e, obs.OpInteraction, start)
}

// DeleteObjectInstance mirrors Federate.DeleteObjectInstance.
func (c *Client) DeleteObjectInstance(obj ObjectHandle) error {
	start := obs.RPCClock()
	var e wire.Encoder
	e.PutByte(msgDelete)
	e.PutInt64(int64(obj))
	return c.call(&e, obs.OpOther, start)
}

// TimeAdvanceRequest mirrors Federate.TimeAdvanceRequest: it blocks,
// delivering callbacks, until the grant arrives.
func (c *Client) TimeAdvanceRequest(t float64) error {
	return c.advance(msgTAR, t)
}

// NextEventRequest mirrors Federate.NextEventRequest. The granted time
// (possibly earlier than t) is reported via TimeAdvanceGrant.
func (c *Client) NextEventRequest(t float64) error {
	return c.advance(msgNER, t)
}

func (c *Client) advance(typ byte, t float64) error {
	start := obs.RPCClock()
	if !c.joined {
		return errors.New("hla: not joined")
	}
	var e wire.Encoder
	e.PutByte(typ)
	e.PutFloat64(t)
	payload, err := c.request(&e, obs.OpAdvance, msgGrant, start)
	if err != nil {
		return err
	}
	d := wire.NewDecoder(payload)
	d.Byte()
	granted := d.Float64()
	if d.Err() != nil {
		return d.Err()
	}
	c.amb.TimeAdvanceGrant(granted)
	return nil
}

// Tick asks the server to flush pending receive-ordered callbacks
// (discoveries, removals) and delivers them.
func (c *Client) Tick() error {
	start := obs.RPCClock()
	var e wire.Encoder
	e.PutByte(msgTick)
	return c.call(&e, obs.OpTick, start)
}

// RegisterSynchronizationPoint mirrors
// Federate.RegisterSynchronizationPoint. The registrant's own
// announcement is delivered before this call returns.
func (c *Client) RegisterSynchronizationPoint(label string, tag []byte) error {
	start := obs.RPCClock()
	var e wire.Encoder
	e.PutByte(msgRegisterSync)
	e.PutString(label)
	e.PutBytes(tag)
	return c.call(&e, obs.OpSync, start)
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
	var e wire.Encoder
	e.PutByte(msgSyncAchieved)
	e.PutString(label)
	err := c.call(&e, obs.OpSync, start)
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
		return errors.New("hla: not joined")
	}
	var e wire.Encoder
	e.PutByte(msgResign)
	if _, err := c.request(&e, obs.OpResign, msgOK, start); err != nil {
		return err
	}
	c.joined = false
	return nil
}
