package hla

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/mobilegrid/adf/internal/obs"
)

// tapConn wraps a connection and records what is written to it: the
// number of Write calls that reach the socket, the bytes, and an
// FNV-64a digest of every byte written, in order.
type tapConn struct {
	net.Conn

	mu     sync.Mutex
	writes int
	bytes  int
	digest hash.Hash64
}

func newTapConn(c net.Conn) *tapConn {
	return &tapConn{Conn: c, digest: fnv.New64a()}
}

// Write records p before passing it on, so a peer that has read the
// bytes always finds them counted.
func (c *tapConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes++
	c.bytes += len(p)
	_, _ = c.digest.Write(p)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// stats returns the Write calls, bytes written and the digest so far.
func (c *tapConn) stats() (writes, bytes int, sum uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writes, c.bytes, c.digest.Sum64()
}

// tapListener wraps every accepted connection in a tapConn and keeps
// them in accept order.
type tapListener struct {
	net.Listener

	mu    sync.Mutex
	conns []*tapConn
}

func (l *tapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc := newTapConn(c)
	l.mu.Lock()
	l.conns = append(l.conns, tc)
	l.mu.Unlock()
	return tc, nil
}

// conn returns the i-th accepted connection.
func (l *tapListener) conn(i int) *tapConn {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.conns[i]
}

// startTapServer runs a TCP RTI with one federation "test" whose
// server-side connections are tapped.
func startTapServer(t *testing.T) (*Server, *tapListener) {
	t.Helper()
	rti := NewRTI()
	if err := rti.CreateFederation("test"); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tl := &tapListener{Listener: ln}
	srv := newServer(rti, tl)
	go func() { _ = srv.Serve() }()
	t.Cleanup(func() { _ = srv.Close() })
	return srv, tl
}

// dialTap connects a client whose connection is tapped.
func dialTap(t *testing.T, addr string) (*Client, *tapConn) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	tc := newTapConn(c)
	cl := newClient(tc)
	t.Cleanup(func() { _ = cl.Close() })
	return cl, tc
}

// wireDigests is the recorded byte-stream digest of the scripted session
// in TestTransportWireIdentity, per side and federate. Any change to the
// protocol's bytes — framing, field order, callback order on a
// connection — moves it; how those bytes are split into socket writes
// does not.
var wireDigests = map[string]uint64{
	"client/alpha": 0xfaeb4368bf3b1895,
	"client/beta":  0xeb19ebad02a35b9,
	"server/alpha": 0xf59579b675c8ce,
	"server/beta":  0x9fbc843bf2ade0cd,
}

// TestTransportWireIdentity runs a scripted two-federate TCP session
// that exercises every request type — join, publish/subscribe, tick,
// sync point, sends, an error reply, time advances, resign — and checks
// the digest of every byte each side wrote on each connection against
// wireDigests.
func TestTransportWireIdentity(t *testing.T) {
	srv, tl := startTapServer(t)
	addr := srv.Addr().String()
	alpha, alphaTap := dialTap(t, addr)
	alphaRec := &syncRecorder{}
	if err := alpha.Join("test", "alpha", 1.0, alphaRec); err != nil {
		t.Fatal(err)
	}
	beta, betaTap := dialTap(t, addr)
	betaRec := &syncRecorder{}
	if err := beta.Join("test", "beta", 1.0, betaRec); err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(alpha.PublishInteractionClass("LU"))
	must(beta.SubscribeInteractionClass("LU"))
	must(beta.Tick())
	must(alpha.RegisterSynchronizationPoint("ready", []byte("tag")))
	must(beta.SynchronizationPointAchieved("ready"))
	must(alpha.SynchronizationPointAchieved("ready"))
	if err := alpha.SendInteraction("LU", Values{"x": {1}}, 0.5); err == nil {
		t.Fatal("lookahead violation accepted")
	}

	// advance runs beta's time advance in the background and alpha's to
	// the same time in the foreground: neither is granted alone.
	advance := func(to float64) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- beta.TimeAdvanceRequest(to) }()
		must(alpha.TimeAdvanceRequest(to))
		must(<-done)
	}
	const steps = 3
	for i := 1; i <= steps; i++ {
		ts := float64(i)
		for n := 0; n < 3; n++ {
			must(alpha.SendInteraction("LU", Values{"node": {byte(n)}, "x": {byte(i), byte(n)}}, ts))
		}
		must(alpha.SendInteraction("LU", Values{"node": {9}, "y": {byte(i)}}, ts+0.5))
		advance(ts)
	}
	advance(steps + 2)
	must(beta.Tick())
	must(beta.Resign())
	must(alpha.Resign())
	must(alpha.Close())
	must(beta.Close())
	must(srv.Close())

	betaRec.mu.Lock()
	if len(betaRec.interactions) != 4*steps || len(betaRec.grants) != steps+1 || len(betaRec.synced) != 1 {
		t.Errorf("beta saw %d interactions, grants %v, synced %v",
			len(betaRec.interactions), betaRec.grants, betaRec.synced)
	}
	betaRec.mu.Unlock()

	got := map[string]uint64{}
	for name, tc := range map[string]*tapConn{
		"client/alpha": alphaTap, "client/beta": betaTap,
		"server/alpha": tl.conn(0), "server/beta": tl.conn(1),
	} {
		_, _, got[name] = tc.stats()
	}
	for name, want := range wireDigests {
		if got[name] != want {
			t.Errorf("%s wrote bytes with digest %#x, want %#x", name, got[name], want)
		}
	}
	if t.Failed() {
		t.Logf("recorded digests: %#v", got)
	}
}

// luValues is one location update's interaction parameters in the
// node/x/y layout of the federate drivers: three 8-byte values.
func luValues(node int) Values {
	var b [24]byte
	binary.BigEndian.PutUint64(b[0:8], uint64(node))
	binary.BigEndian.PutUint64(b[8:16], uint64(node)*3)
	binary.BigEndian.PutUint64(b[16:24], uint64(node)*7)
	return Values{"node": b[0:8], "x": b[8:16], "y": b[16:24]}
}

// TestTransportCoalescesWrites pins the socket-write shape of the TCP
// transport: a synchronous client request leaves in exactly one write; a
// pipelined send, traced or not, takes no write of its own, and the
// time advance that follows a step's batch of sends carries all of them
// in no more writes than their bytes fill I/O buffers, plus one. The
// batch, one class at one time with tracing on for its first send only,
// is one run: the RTI queues it once for its one receiver. The
// server acks the burst in a handful of writes, not one per send: it
// flushes only when its next read would block. A receiver's time
// advance that delivers the batch costs the server no more writes on
// that connection than the batch's bytes fill I/O buffers, plus one.
func TestTransportCoalescesWrites(t *testing.T) {
	srv, tl := startTapServer(t)
	addr := srv.Addr().String()
	send, sendTap := dialTap(t, addr)
	request := func(what string, want int, call func() error) {
		t.Helper()
		before, _, _ := sendTap.stats()
		if err := call(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if after, _, _ := sendTap.stats(); after-before != want {
			t.Errorf("%s took %d client writes, want %d", what, after-before, want)
		}
	}
	request("join", 1, func() error { return send.Join("test", "send", 1, &recorder{}) })
	recv, recvRec := dialJoin(t, addr, "recv")
	request("publish", 1, func() error { return send.PublishInteractionClass("LU") })
	if err := recv.SubscribeInteractionClass("LU"); err != nil {
		t.Fatal(err)
	}

	const lus = 405
	for i := 0; i < lus; i++ {
		if i == 0 {
			obs.SetEnabled(true)
		}
		request("send", 0, func() error { return send.SendInteraction("LU", luValues(i), 1) })
		if i == 0 {
			obs.SetEnabled(false)
		}
	}

	sendSrv, recvSrv := tl.conn(0), tl.conn(1)
	writes0, bytes0, _ := recvSrv.stats()
	sendWrites0, sendBytes0, _ := sendTap.stats()
	ackWrites0, _, _ := sendSrv.stats()
	done := make(chan error, 1)
	go func() { done <- send.TimeAdvanceRequest(1) }()
	if err := recv.TimeAdvanceRequest(1); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	writes1, bytes1, _ := recvSrv.stats()
	sendWrites1, sendBytes1, _ := sendTap.stats()
	ackWrites1, _, _ := sendSrv.stats()
	// Every send was still buffered, so the advance carries them all.
	sendWrites, sendBytes := sendWrites1-sendWrites0, sendBytes1-sendBytes0
	if limit := (sendBytes+ioBufferSize-1)/ioBufferSize + 1; sendWrites > limit {
		t.Errorf("advance carrying %d sends (%d bytes) took %d client writes, want at most %d",
			lus, sendBytes, sendWrites, limit)
	}
	// The server's reads of the burst, however the kernel splits it,
	// number far fewer than its sends.
	if ackWrites, limit := ackWrites1-ackWrites0, sendBytes/4096+2; ackWrites > limit {
		t.Errorf("acking %d sends and the grant took %d server writes, want at most %d", lus, ackWrites, limit)
	}
	recvRec.mu.Lock()
	got := len(recvRec.interactions)
	recvRec.mu.Unlock()
	if got != lus {
		t.Fatalf("receiver got %d interactions, want %d", got, lus)
	}
	fed, err := srv.RTI().federation("test")
	if err != nil {
		t.Fatal(err)
	}
	fed.mu.Lock()
	queued := fed.seq
	fed.mu.Unlock()
	if queued != 1 {
		t.Errorf("%d sends of one class and time were queued as %d messages, want one run", lus, queued)
	}
	writes, bytes := writes1-writes0, bytes1-bytes0
	if limit := (bytes+ioBufferSize-1)/ioBufferSize + 1; writes > limit {
		t.Errorf("advance delivering %d interactions (%d bytes) took %d server writes, want at most %d",
			lus, bytes, writes, limit)
	}
}

// signalAmb records callbacks like syncRecorder and also reports each
// announcement, synchronization and grant on events as it arrives.
type signalAmb struct {
	syncRecorder
	events chan string
}

func (a *signalAmb) AnnounceSynchronizationPoint(label string, tag []byte) {
	a.syncRecorder.AnnounceSynchronizationPoint(label, tag)
	a.events <- "announce " + label
}

func (a *signalAmb) FederationSynchronized(label string) {
	a.syncRecorder.FederationSynchronized(label)
	a.events <- "synced " + label
}

func (a *signalAmb) TimeAdvanceGrant(t float64) {
	a.syncRecorder.TimeAdvanceGrant(t)
	a.events <- "grant"
}

// TestTransportFlushesBeforeBlocking pins the flush rule: the server
// never holds a buffered frame while a federate's handler waits. A
// remote federate blocked in a time advance that cannot be granted yet
// must still receive the receive-order callbacks other federates cause
// in the meantime — a federation synchronization and a sync-point
// announcement — before its grant.
func TestTransportFlushesBeforeBlocking(t *testing.T) {
	srv, _ := startTapServer(t)
	addr := srv.Addr().String()
	waiter, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = waiter.Close() })
	// One slot per expected callback, so a failed test never leaves the
	// waiter's goroutine blocked in a callback.
	amb := &signalAmb{events: make(chan string, 4)}
	if err := waiter.Join("test", "waiter", 1, amb); err != nil {
		t.Fatal(err)
	}
	other, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = other.Close() })
	if err := other.Join("test", "other", 1, &syncRecorder{}); err != nil {
		t.Fatal(err)
	}

	expect := func(want string) {
		t.Helper()
		select {
		case got := <-amb.events:
			if got != want {
				t.Fatalf("blocked federate received %q, want %q", got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("blocked federate never received %q: a callback is held in a server buffer", want)
		}
	}
	// The waiter achieves "ready" before it blocks; "other" completes it
	// while the waiter waits.
	if err := other.RegisterSynchronizationPoint("ready", nil); err != nil {
		t.Fatal(err)
	}
	if err := waiter.Tick(); err != nil {
		t.Fatal(err)
	}
	expect("announce ready")
	if err := waiter.SynchronizationPointAchieved("ready"); err != nil {
		t.Fatal(err)
	}

	advanced := make(chan error, 1)
	go func() { advanced <- waiter.TimeAdvanceRequest(10) }()
	// Wait until the server holds the waiter's advance pending: "other"
	// is still at time 0, so the grant is impossible.
	for deadline := time.Now().Add(5 * time.Second); ; {
		fi := srv.RTI().Snapshot()[0].Detail[0]
		if fi.Pending {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the waiter's time advance never reached the server")
		}
		time.Sleep(time.Millisecond)
	}

	if err := other.SynchronizationPointAchieved("ready"); err != nil {
		t.Fatal(err)
	}
	expect("synced ready")
	if err := other.RegisterSynchronizationPoint("go", nil); err != nil {
		t.Fatal(err)
	}
	expect("announce go")

	if err := other.TimeAdvanceRequest(10); err != nil {
		t.Fatal(err)
	}
	expect("grant")
	if err := <-advanced; err != nil {
		t.Fatal(err)
	}
}
