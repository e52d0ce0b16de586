package hla

import (
	"encoding/binary"
	"errors"
	"testing"
	"time"
)

// onServer runs edit on the RTI-side record of the federate c joined
// as, under its federation's lock: a change the client cannot see.
func onServer(t *testing.T, srv *Server, c *Client, edit func(st *federateState)) {
	t.Helper()
	rti := srv.RTI()
	rti.mu.Lock()
	fed := rti.federations["test"]
	rti.mu.Unlock()
	fed.mu.Lock()
	defer fed.mu.Unlock()
	st, ok := fed.federates[c.Handle()]
	if !ok {
		t.Fatalf("federate %d not on the server", c.Handle())
	}
	edit(st)
}

// withinDeadline fails the test if body does not finish in time: a
// pipelining bug shows as both ends blocked, not as an error.
func withinDeadline(t *testing.T, body func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		body()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("deadlock: the client and server never finished the exchange")
	}
}

// stepBoth runs send's and recv's time advances to ts together.
func stepBoth(send, recv *Client, ts float64) error {
	done := make(chan error, 1)
	go func() { done <- recv.TimeAdvanceRequest(ts) }()
	return errors.Join(send.TimeAdvanceRequest(ts), <-done)
}

// nodesReceived decodes the node IDs of luValues interactions in
// delivery order.
func nodesReceived(rec *recorder) []int {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	out := make([]int, len(rec.interactions))
	for i, in := range rec.interactions {
		out[i] = int(binary.BigEndian.Uint64(in.values["node"]))
	}
	return out
}

// TestPipelinedSendRejectedOnServer covers sends that pass the
// client's local check but that the server rejects, because the test
// edits the server's record behind the client's back: each send
// returns nil; the next synchronous call returns the first rejection
// with its sentinel intact, after completing its own work (joined with
// its own error when it fails too); and the call after that succeeds.
func TestPipelinedSendRejectedOnServer(t *testing.T) {
	srv, _ := startTapServer(t)
	addr := srv.Addr().String()
	send, sendRec := dialJoin(t, addr, "send")
	recv, recvRec := dialJoin(t, addr, "recv")
	for _, class := range []string{"LU", "LU2"} {
		if err := send.PublishInteractionClass(class); err != nil {
			t.Fatal(err)
		}
		if err := recv.SubscribeInteractionClass(class); err != nil {
			t.Fatal(err)
		}
	}
	mustSend := func(class string, node int, ts float64) {
		t.Helper()
		if err := send.SendInteraction(class, luValues(node), ts); err != nil {
			t.Fatalf("send %d, which the client cannot know is invalid: %v", node, err)
		}
	}
	unpublish := func(class string) func(*federateState) {
		return func(st *federateState) { delete(st.pubInteractions, class) }
	}
	republish := func(st *federateState) { st.pubInteractions["LU"], st.pubInteractions["LU2"] = true, true }

	// One rejected send: reported once, by the next call.
	onServer(t, srv, send, unpublish("LU"))
	mustSend("LU", 1, 1)
	if err := send.Tick(); !errors.Is(err, ErrNotPublished) {
		t.Fatalf("tick after a rejected send: %v, want ErrNotPublished", err)
	}
	if err := send.Tick(); err != nil {
		t.Fatalf("tick after the rejection was reported: %v", err)
	}
	onServer(t, srv, send, republish)

	// Two rejected sends: the first one's error is kept.
	onServer(t, srv, send, func(st *federateState) {
		st.time = 3
		delete(st.pubInteractions, "LU2")
	})
	mustSend("LU", 2, 2)
	mustSend("LU2", 3, 5)
	if err := send.Tick(); !errors.Is(err, ErrInvalidTime) || errors.Is(err, ErrNotPublished) {
		t.Fatalf("tick after two rejected sends: %v, want only the first (ErrInvalidTime)", err)
	}
	onServer(t, srv, send, func(st *federateState) {
		st.time = 0
		republish(st)
	})

	// A failing call after a rejected send returns both errors.
	onServer(t, srv, send, unpublish("LU"))
	mustSend("LU", 4, 1)
	err := send.SendInteraction("LU2", luValues(5), 0.5) // below the lookahead bound: a round trip
	if !errors.Is(err, ErrNotPublished) || !errors.Is(err, ErrInvalidTime) {
		t.Fatalf("failing call after a rejected send: %v, want ErrNotPublished joined with ErrInvalidTime", err)
	}
	onServer(t, srv, send, republish)

	// An advance that reports a rejection still completes: the grant
	// reaches the ambassador and moves the client's lookahead bound.
	onServer(t, srv, send, unpublish("LU"))
	mustSend("LU", 6, 1)
	if err := stepBoth(send, recv, 1); !errors.Is(err, ErrNotPublished) {
		t.Fatalf("advance after a rejected send: %v, want ErrNotPublished", err)
	}
	onServer(t, srv, send, republish)
	sendRec.mu.Lock()
	grants := append([]float64(nil), sendRec.grants...)
	sendRec.mu.Unlock()
	if len(grants) != 1 || grants[0] != 1 {
		t.Errorf("sender grants = %v, want [1]", grants)
	}
	if err := send.SendInteraction("LU", luValues(7), 1.5); !errors.Is(err, ErrInvalidTime) {
		t.Fatalf("send below the new grant's bound: %v, want ErrInvalidTime", err)
	}
	mustSend("LU", 8, 2)
	if err := stepBoth(send, recv, 2); err != nil {
		t.Fatal(err)
	}

	if got := nodesReceived(recvRec); len(got) != 1 || got[0] != 8 {
		t.Errorf("receiver got LUs %v, want [8]", got)
	}
}

// TestPipelinedSendsBeyondWindow sends several windows' worth of
// interactions with no synchronous call in between, once accepted and
// once all rejected on the server (error acks are larger than ok
// acks): nothing deadlocks, the acks owed never exceed the window and
// every send is accounted for.
func TestPipelinedSendsBeyondWindow(t *testing.T) {
	srv, _ := startTapServer(t)
	addr := srv.Addr().String()
	send, _ := dialJoin(t, addr, "send")
	recv, recvRec := dialJoin(t, addr, "recv")
	if err := send.PublishInteractionClass("LU"); err != nil {
		t.Fatal(err)
	}
	if err := recv.SubscribeInteractionClass("LU"); err != nil {
		t.Fatal(err)
	}
	const n = 3*pipelineWindow + 7

	withinDeadline(t, func() {
		for i := 0; i < n; i++ {
			if err := send.SendInteraction("LU", luValues(i), 1); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
			if send.pending > pipelineWindow {
				t.Errorf("send %d left %d acks owed, above the window of %d", i, send.pending, pipelineWindow)
				return
			}
		}
		if err := stepBoth(send, recv, 1); err != nil {
			t.Error(err)
		}
	})
	got := nodesReceived(recvRec)
	if len(got) != n {
		t.Fatalf("receiver got %d LUs, want %d", len(got), n)
	}
	for i, node := range got {
		if node != i {
			t.Fatalf("LU %d is node %d: sends reordered", i, node)
		}
	}

	onServer(t, srv, send, func(st *federateState) { delete(st.pubInteractions, "LU") })
	withinDeadline(t, func() {
		for i := 0; i < n; i++ {
			if err := send.SendInteraction("LU", luValues(i), 2); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
		if err := send.Tick(); !errors.Is(err, ErrNotPublished) {
			t.Errorf("tick after %d rejected sends: %v, want ErrNotPublished", n, err)
		}
		if err := send.Tick(); err != nil {
			t.Errorf("second tick: %v", err)
		}
	})
}

// TestPipelinedSendsFlushedOnClose closes a sender right after a batch
// of sends, without resigning: Close flushes them, the server routes
// every one before it resigns the dropped federate, and the receiver's
// next advance delivers them all.
func TestPipelinedSendsFlushedOnClose(t *testing.T) {
	srv, _ := startTapServer(t)
	addr := srv.Addr().String()
	send, _ := dialJoin(t, addr, "send")
	recv, recvRec := dialJoin(t, addr, "recv")
	if err := send.PublishInteractionClass("LU"); err != nil {
		t.Fatal(err)
	}
	if err := recv.SubscribeInteractionClass("LU"); err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := 0; i < n; i++ {
		if err := send.SendInteraction("LU", luValues(i), 1); err != nil {
			t.Fatal(err)
		}
	}
	withinDeadline(t, func() {
		if err := send.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		// The sender is resigned once its connection drops, so the
		// receiver's advance is granted alone.
		if err := recv.TimeAdvanceRequest(1); err != nil {
			t.Errorf("receiver advance: %v", err)
		}
	})
	if got := nodesReceived(recvRec); len(got) != n {
		t.Errorf("receiver got %d LUs after the sender closed, want %d", len(got), n)
	}
}
