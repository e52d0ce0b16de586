package hla

import (
	"errors"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/mobilegrid/adf/internal/obs"
	"github.com/mobilegrid/adf/internal/wire"
)

// The timeouts below are small so the tests are quick; every failure
// bound is generous (patience), so a loaded machine or -race cannot
// make them flake.
const (
	shortTimeout = 50 * time.Millisecond
	patience     = 10 * time.Second
)

// countConn counts the deadline calls made on a connection.
type countConn struct {
	net.Conn
	deadlines *atomic.Int64
}

func (c countConn) SetDeadline(t time.Time) error {
	c.deadlines.Add(1)
	return c.Conn.SetDeadline(t)
}

func (c countConn) SetReadDeadline(t time.Time) error {
	c.deadlines.Add(1)
	return c.Conn.SetReadDeadline(t)
}

func (c countConn) SetWriteDeadline(t time.Time) error {
	c.deadlines.Add(1)
	return c.Conn.SetWriteDeadline(t)
}

// pipeAddr is the address of a pipeListener.
type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// pipeListener serves connections made of net.Pipe ends. A pipe has no
// buffer, so a write blocks until the peer reads: a peer that stops
// reading stalls the writer at once. Both ends of every pipe count
// their deadline calls into deadlines.
type pipeListener struct {
	conns     chan net.Conn
	done      chan struct{}
	once      sync.Once
	deadlines atomic.Int64
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

// dial hands one end of a new pipe to the server and returns the other.
func (l *pipeListener) dial(t *testing.T) net.Conn {
	t.Helper()
	client, server := net.Pipe()
	select {
	case l.conns <- countConn{Conn: server, deadlines: &l.deadlines}:
	case <-time.After(patience):
		t.Fatal("server accepted no connection")
	}
	return countConn{Conn: client, deadlines: &l.deadlines}
}

// startPipeServer serves a one-federation RTI on a pipeListener with
// the given I/O timeouts.
func startPipeServer(t *testing.T, read, write time.Duration) (*RTI, *pipeListener) {
	t.Helper()
	rti := newFederation(t)
	ln := newPipeListener()
	srv := newServer(rti, ln)
	srv.SetIOTimeouts(read, write)
	go func() { _ = srv.Serve() }()
	t.Cleanup(func() { _ = srv.Close() })
	return rti, ln
}

// enableObs turns recording on for the test, so the error counters
// count.
func enableObs(t *testing.T) {
	t.Helper()
	prev := obs.Enabled()
	obs.SetEnabled(true)
	t.Cleanup(func() { obs.SetEnabled(prev) })
}

// rtiTimeouts is the timeout class of adf_rti_errors_total on a side.
func rtiTimeouts(side string) *obs.Counter {
	return obs.Default.Counter("adf_rti_errors_total", "side", side, "class", "timeout")
}

// awaitGrant waits for a time advance run in the background to return
// and fails unless it returned without error.
func awaitGrant(t *testing.T, granted <-chan error, what string) {
	t.Helper()
	select {
	case err := <-granted:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(patience):
		t.Fatalf("%s: no grant after %v", what, patience)
	}
}

// federates returns the names of the live federates of "test".
func federates(rti *RTI) []string {
	for _, f := range rti.Snapshot() {
		if f.Name == "test" {
			return f.Federates
		}
	}
	return nil
}

// TestClientReadTimeout: a client whose server never replies gets an
// error from its call once the read timeout passes, classified as a
// timeout on the client side, instead of waiting forever.
func TestClientReadTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer func() { _ = conn.Close() }()
		_, _ = io.Copy(io.Discard, conn) // takes every request, answers none
	}()
	enableObs(t)
	timeouts := rtiTimeouts("client")
	before := timeouts.Value()

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	c.SetIOTimeouts(shortTimeout, 0)
	joined := make(chan error, 1)
	go func() { joined <- c.Join("test", "stalled", 1, &recorder{}) }()
	select {
	case err = <-joined:
	case <-time.After(patience):
		t.Fatalf("Join still waiting %v after a %v read timeout", patience, shortTimeout)
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("Join error = %v, want a timeout", err)
	}
	if got := timeouts.Value() - before; got != 1 {
		t.Errorf("client timeouts counted = %d, want 1", got)
	}
}

// TestServerDropsIdleFederate: a joined client that sends nothing for
// longer than the server's read timeout is dropped and its federate
// resigned, so a lockstep peer held back by it is granted.
func TestServerDropsIdleFederate(t *testing.T) {
	rti, ln := startPipeServer(t, shortTimeout, 0)
	enableObs(t)
	timeouts := rtiTimeouts("server")
	before := timeouts.Value()

	idle := newClient(ln.dial(t))
	defer func() { _ = idle.Close() }()
	if err := idle.Join("test", "idle", 1, &recorder{}); err != nil {
		t.Fatal(err)
	}
	peer, _ := join(t, rti, "peer")
	granted := make(chan error, 1)
	go func() { granted <- peer.TimeAdvanceRequest(5) }()
	awaitGrant(t, granted, "peer behind the idle federate")

	if got := federates(rti); !slices.Equal(got, []string{"peer"}) {
		t.Errorf("federates after the drop = %v, want [peer]", got)
	}
	if err := idle.Tick(); err == nil {
		t.Error("the dropped client's next call succeeded")
	}
	if got := timeouts.Value() - before; got < 1 {
		t.Error("the server counted no read timeout")
	}
}

// TestServerDropsStalledReceiver: a client that sends a request and
// stops reading is dropped once the reply's write has blocked past the
// server's write timeout, and its federate resigned, so a lockstep peer
// is granted.
func TestServerDropsStalledReceiver(t *testing.T) {
	rti, ln := startPipeServer(t, 0, shortTimeout)
	enableObs(t)
	timeouts := rtiTimeouts("server")
	before := timeouts.Value()

	conn := ln.dial(t)
	receiver := newClient(conn)
	defer func() { _ = receiver.Close() }()
	if err := receiver.Join("test", "receiver", 1, &recorder{}); err != nil {
		t.Fatal(err)
	}
	peer, _ := join(t, rti, "peer")
	granted := make(chan error, 1)
	go func() { granted <- peer.TimeAdvanceRequest(5) }()

	// A tick request whose ok reply nobody reads.
	if err := wire.WriteFrame(conn, []byte{msgTick}); err != nil {
		t.Fatal(err)
	}
	awaitGrant(t, granted, "peer behind the stalled receiver")

	if got := federates(rti); !slices.Equal(got, []string{"peer"}) {
		t.Errorf("federates after the drop = %v, want [peer]", got)
	}
	if got := timeouts.Value() - before; got < 1 {
		t.Error("the server counted no write timeout")
	}
}

// TestZeroTimeoutsWaitOnQuietPeer: without timeouts (the default) a
// federate's time advance waits as long as its lockstep peer stays
// quiet, both are granted once the peer asks too, and no deadline is
// ever set on either end of either connection.
func TestZeroTimeoutsWaitOnQuietPeer(t *testing.T) {
	_, ln := startPipeServer(t, 0, 0)
	quiet := newClient(ln.dial(t))
	eager := newClient(ln.dial(t))
	for _, c := range []struct {
		cl   *Client
		name string
	}{{quiet, "quiet"}, {eager, "eager"}} {
		if err := c.cl.Join("test", c.name, 1, &recorder{}); err != nil {
			t.Fatal(err)
		}
	}
	granted := make(chan error, 1)
	go func() { granted <- eager.TimeAdvanceRequest(5) }()
	// Quiet for several times the timeouts the tests above trip on.
	select {
	case err := <-granted:
		t.Fatalf("granted while its peer was still at 0: %v", err)
	case <-time.After(6 * shortTimeout):
	}
	if err := quiet.TimeAdvanceRequest(5); err != nil {
		t.Fatalf("quiet federate's advance: %v", err)
	}
	awaitGrant(t, granted, "eager federate")
	for _, c := range []*Client{quiet, eager} {
		if err := c.Resign(); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if n := ln.deadlines.Load(); n != 0 {
		t.Errorf("%d deadline calls with zero timeouts, want none", n)
	}
}
