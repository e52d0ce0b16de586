package hla

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/mobilegrid/adf/internal/wire"
)

// startServer runs a TCP RTI with one federation and returns its address.
func startServer(t *testing.T) string {
	t.Helper()
	rti := NewRTI()
	if err := rti.CreateFederation("test"); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(rti, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve() }()
	t.Cleanup(func() { _ = srv.Close() })
	return srv.Addr().String()
}

func dialJoin(t *testing.T, addr, name string) (*Client, *recorder) {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	rec := &recorder{}
	if err := c.Join("test", name, 1.0, rec); err != nil {
		t.Fatal(err)
	}
	return c, rec
}

func TestTCPJoinErrors(t *testing.T) {
	addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if err := c.Join("nope", "f", 1, &recorder{}); !errors.Is(err, ErrNoFederation) {
		t.Errorf("join unknown federation: %v", err)
	}
	// Sentinel survived the wire; a proper join still works afterwards.
	if err := c.Join("test", "f", 1, &recorder{}); err != nil {
		t.Fatal(err)
	}
	if c.Handle() == 0 {
		t.Error("no federate handle assigned")
	}
	if err := c.Join("test", "again", 1, &recorder{}); err == nil {
		t.Error("double join accepted")
	}
	if err := c.Join("test", "f", 1, nil); err == nil {
		t.Error("nil ambassador accepted")
	}
}

func TestTCPInteractionFlow(t *testing.T) {
	addr := startServer(t)
	send, _ := dialJoin(t, addr, "send")
	recv, recvRec := dialJoin(t, addr, "recv")

	if err := send.PublishInteractionClass("LU"); err != nil {
		t.Fatal(err)
	}
	if err := recv.SubscribeInteractionClass("LU"); err != nil {
		t.Fatal(err)
	}
	if err := send.SendInteraction("LU", Values{"id": []byte{7}, "x": []byte("pos")}, 2); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(2)
	errs := make(chan error, 2)
	go func() { defer wg.Done(); errs <- send.TimeAdvanceRequest(3) }()
	go func() { defer wg.Done(); errs <- recv.TimeAdvanceRequest(3) }()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	recvRec.mu.Lock()
	defer recvRec.mu.Unlock()
	if len(recvRec.interactions) != 1 {
		t.Fatalf("interactions = %d", len(recvRec.interactions))
	}
	got := recvRec.interactions[0]
	if got.class != "LU" || got.time != 2 || string(got.values["x"]) != "pos" || got.values["id"][0] != 7 {
		t.Errorf("interaction = %+v", got)
	}
	if len(recvRec.grants) != 1 || recvRec.grants[0] != 3 {
		t.Errorf("grants = %v", recvRec.grants)
	}
}

func TestTCPServiceErrorsCrossWire(t *testing.T) {
	addr := startServer(t)
	c, _ := dialJoin(t, addr, "f")
	if err := c.SendInteraction("LU", nil, 5); !errors.Is(err, ErrNotPublished) {
		t.Errorf("unpublished send: %v", err)
	}
	if err := c.PublishInteractionClass("LU"); err != nil {
		t.Fatal(err)
	}
	if err := c.SendInteraction("LU", nil, 0.5); !errors.Is(err, ErrInvalidTime) {
		t.Errorf("lookahead violation: %v", err)
	}
}

// TestTCPRetiredCodesRejected sends a joined federate's connection one
// frame of each retired request type (publish-object, subscribe-object,
// register, update, delete and next-event, codes 2, 3, 6, 7, 9 and 15)
// and of a type never assigned. Each gets the "unknown message type"
// error reply, without a sentinel, and the connection then still
// carries a send and a time advance.
func TestTCPRetiredCodesRejected(t *testing.T) {
	addr := startServer(t)
	c, _ := dialJoin(t, addr, "f")
	recv, recvRec := dialJoin(t, addr, "recv")
	for _, code := range []byte{2, 3, 6, 7, 9, 15, 200} {
		// A type byte and the start of a payload, as an old client
		// would send it.
		if err := wire.WriteFrame(c.bw, []byte{code, 0, 0, 0, 1, 'N'}); err != nil {
			t.Fatal(err)
		}
		if err := c.bw.Flush(); err != nil {
			t.Fatal(err)
		}
		_, rejected, err := c.reply(msgOK)
		if err != nil {
			t.Fatalf("code %d: %v", code, err)
		}
		want := fmt.Sprintf("hla: unknown message type %d", code)
		if rejected == nil || rejected.Error() != want || errorCode(rejected) != 0 {
			t.Errorf("code %d: reply %v, want %q", code, rejected, want)
		}
	}
	if err := c.PublishInteractionClass("LU"); err != nil {
		t.Fatal(err)
	}
	if err := recv.SubscribeInteractionClass("LU"); err != nil {
		t.Fatal(err)
	}
	if err := c.SendInteraction("LU", Values{"id": {1}}, 1); err != nil {
		t.Fatal(err)
	}
	if err := stepBoth(c, recv, 1); err != nil {
		t.Fatal(err)
	}
	recvRec.mu.Lock()
	defer recvRec.mu.Unlock()
	if len(recvRec.interactions) != 1 || len(recvRec.grants) != 1 {
		t.Errorf("receiver got %d interactions and grants %v, want 1 and [1]", len(recvRec.interactions), recvRec.grants)
	}
}

func TestTCPResign(t *testing.T) {
	addr := startServer(t)
	a, _ := dialJoin(t, addr, "a")
	b, _ := dialJoin(t, addr, "b")

	// a's advance is blocked by b; b resigning releases it.
	done := make(chan error, 1)
	go func() { done <- a.TimeAdvanceRequest(10) }()
	if err := b.Resign(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("a not granted after b's resign: %v", err)
	}
	if err := b.Resign(); err == nil {
		t.Error("double resign accepted")
	}
}

func TestTCPDisconnectResignsFederate(t *testing.T) {
	addr := startServer(t)
	a, _ := dialJoin(t, addr, "a")
	b, _ := dialJoin(t, addr, "b")

	done := make(chan error, 1)
	go func() { done <- a.TimeAdvanceRequest(10) }()
	// b's connection drops without a resign; the server must resign it
	// and unblock a.
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("a not granted after b disconnected: %v", err)
	}
}

func TestTCPMixedLocalAndRemoteFederates(t *testing.T) {
	// One in-process federate and one TCP federate in the same
	// federation, gating each other's time.
	rti := NewRTI()
	if err := rti.CreateFederation("test"); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(rti, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve() }()
	defer func() { _ = srv.Close() }()

	localRec := &recorder{}
	local, err := rti.Join("test", "local", 1, localRec)
	if err != nil {
		t.Fatal(err)
	}
	remote, remoteRec := dialJoin(t, srv.Addr().String(), "remote")

	if err := local.PublishInteractionClass("LU"); err != nil {
		t.Fatal(err)
	}
	if err := remote.SubscribeInteractionClass("LU"); err != nil {
		t.Fatal(err)
	}

	const steps = 10
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 1; i <= steps; i++ {
			ts := float64(i)
			if err := local.SendInteraction("LU", Values{"i": []byte{byte(i)}}, ts); err != nil {
				t.Error(err)
				return
			}
			if err := local.TimeAdvanceRequest(ts); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 1; i <= steps; i++ {
			if err := remote.TimeAdvanceRequest(float64(i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	remoteRec.mu.Lock()
	defer remoteRec.mu.Unlock()
	if len(remoteRec.interactions) != steps {
		t.Errorf("remote received %d interactions, want %d", len(remoteRec.interactions), steps)
	}
	for i := 1; i < len(remoteRec.interactions); i++ {
		if remoteRec.interactions[i].time < remoteRec.interactions[i-1].time {
			t.Fatal("out of timestamp order")
		}
	}
}
