package hla

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// recorder is a test Ambassador that records callbacks.
type recorder struct {
	mu           sync.Mutex
	interactions []callbackRecord
	grants       []float64
}

type callbackRecord struct {
	class  string
	values Values
	time   float64
}

func (r *recorder) ReceiveInteraction(class string, params Values, t float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.interactions = append(r.interactions, callbackRecord{class: class, values: params, time: t})
}

func (r *recorder) TimeAdvanceGrant(t float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.grants = append(r.grants, t)
}

func newFederation(t *testing.T) *RTI {
	t.Helper()
	rti := NewRTI()
	if err := rti.CreateFederation("test"); err != nil {
		t.Fatal(err)
	}
	return rti
}

func join(t *testing.T, rti *RTI, name string) (*Federate, *recorder) {
	t.Helper()
	rec := &recorder{}
	f, err := rti.Join("test", name, 1.0, rec)
	if err != nil {
		t.Fatal(err)
	}
	return f, rec
}

func TestFederationLifecycle(t *testing.T) {
	rti := NewRTI()
	if err := rti.CreateFederation("fed"); err != nil {
		t.Fatal(err)
	}
	if err := rti.CreateFederation("fed"); !errors.Is(err, ErrFederationExists) {
		t.Errorf("duplicate create: %v", err)
	}
	if _, err := rti.Join("nope", "f", 1, &recorder{}); !errors.Is(err, ErrNoFederation) {
		t.Errorf("join unknown: %v", err)
	}
	f, err := rti.Join("fed", "f", 1, &recorder{})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Resign(); err != nil {
		t.Fatal(err)
	}
}

func TestJoinValidation(t *testing.T) {
	rti := newFederation(t)
	if _, err := rti.Join("test", "f", 0, &recorder{}); !errors.Is(err, ErrInvalidTime) {
		t.Errorf("zero lookahead: %v", err)
	}
	if _, err := rti.Join("test", "f", 1, nil); err == nil {
		t.Error("nil ambassador accepted")
	}
	f, _ := join(t, rti, "f")
	if f.Handle() == 0 || f.Name() != "f" || f.Lookahead() != 1 {
		t.Errorf("federate accessors: %d %q %v", f.Handle(), f.Name(), f.Lookahead())
	}
}

func TestPublishRequiredForSending(t *testing.T) {
	rti := newFederation(t)
	f, _ := join(t, rti, "sender")
	if err := f.SendInteraction("LU", nil, 5); !errors.Is(err, ErrNotPublished) {
		t.Errorf("send unpublished: %v", err)
	}
}

// advanceBoth advances two federates to t concurrently (they gate each
// other through the LBTS).
func advanceBoth(t *testing.T, a, b *Federate, to float64) {
	t.Helper()
	errs := make(chan error, 2)
	go func() { errs <- a.TimeAdvanceRequest(to) }()
	go func() { errs <- b.TimeAdvanceRequest(to) }()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestInteractionsTimestampOrdered(t *testing.T) {
	rti := newFederation(t)
	send, _ := join(t, rti, "send")
	recv, recvRec := join(t, rti, "recv")

	if err := send.PublishInteractionClass("LU"); err != nil {
		t.Fatal(err)
	}
	if err := recv.SubscribeInteractionClass("LU"); err != nil {
		t.Fatal(err)
	}
	// Send out of timestamp order; delivery must be in timestamp order.
	for _, ts := range []float64{5, 2, 9, 3} {
		if err := send.SendInteraction("LU", Values{"n": []byte{byte(ts)}}, ts); err != nil {
			t.Fatal(err)
		}
	}
	advanceBoth(t, send, recv, 10)
	recvRec.mu.Lock()
	defer recvRec.mu.Unlock()
	if len(recvRec.interactions) != 4 {
		t.Fatalf("interactions = %d", len(recvRec.interactions))
	}
	want := []float64{2, 3, 5, 9}
	for i, rec := range recvRec.interactions {
		if rec.time != want[i] {
			t.Fatalf("delivery order %v, want %v", times(recvRec.interactions), want)
		}
	}
}

func times(recs []callbackRecord) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = r.time
	}
	return out
}

func TestLookaheadEnforced(t *testing.T) {
	rti := newFederation(t)
	f, _ := join(t, rti, "f") // lookahead 1, time 0
	if err := f.PublishInteractionClass("LU"); err != nil {
		t.Fatal(err)
	}
	if err := f.SendInteraction("LU", nil, 0.5); !errors.Is(err, ErrInvalidTime) {
		t.Errorf("timestamp below lookahead accepted: %v", err)
	}
	if err := f.SendInteraction("LU", nil, 1.0); err != nil {
		t.Errorf("timestamp at lookahead rejected: %v", err)
	}
}

func TestConservativeTimeStepping(t *testing.T) {
	// A federate cannot be granted past another federate's
	// time + lookahead.
	rti := newFederation(t)
	a, aRec := join(t, rti, "a")
	b, _ := join(t, rti, "b")

	done := make(chan error, 1)
	go func() { done <- a.TimeAdvanceRequest(5) }()

	// Give the grant a chance to (incorrectly) arrive.
	time.Sleep(20 * time.Millisecond)
	aRec.mu.Lock()
	granted := len(aRec.grants)
	aRec.mu.Unlock()
	if granted != 0 {
		t.Fatal("federate a granted past b's LBTS")
	}

	// b advancing to 4 is NOT enough: its exclusive bound becomes exactly
	// 5 and b could still send a message stamped 5 after its grant.
	go func() {
		if err := b.TimeAdvanceRequest(4); err != nil {
			t.Error(err)
		}
	}()
	time.Sleep(20 * time.Millisecond)
	aRec.mu.Lock()
	granted = len(aRec.grants)
	aRec.mu.Unlock()
	if granted != 0 {
		t.Fatal("federate a granted at exactly b's LBTS (unsafe boundary)")
	}

	// b advancing past 4 raises a's exclusive bound beyond 5.
	go func() {
		if err := b.TimeAdvanceRequest(4.5); err != nil {
			t.Error(err)
		}
	}()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if a.Time() != 5 {
		t.Errorf("a.Time = %v, want 5", a.Time())
	}
}

func TestTARValidation(t *testing.T) {
	rti := newFederation(t)
	a, _ := join(t, rti, "a")
	b, _ := join(t, rti, "b")
	advanceBoth(t, a, b, 5)
	if err := a.TimeAdvanceRequest(3); !errors.Is(err, ErrInvalidTime) {
		t.Errorf("backwards TAR: %v", err)
	}
}

func TestResignUnblocksOthers(t *testing.T) {
	rti := newFederation(t)
	a, _ := join(t, rti, "a")
	b, _ := join(t, rti, "b")

	done := make(chan error, 1)
	go func() { done <- a.TimeAdvanceRequest(100) }()
	time.Sleep(10 * time.Millisecond)
	if err := b.Resign(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("a not granted after b resigned: %v", err)
	}
}

func TestResignedOperationsFail(t *testing.T) {
	rti := newFederation(t)
	f, _ := join(t, rti, "f")
	if err := f.Resign(); err != nil {
		t.Fatal(err)
	}
	if err := f.PublishInteractionClass("X"); !errors.Is(err, ErrResigned) {
		t.Errorf("publish after resign: %v", err)
	}
	if err := f.TimeAdvanceRequest(1); !errors.Is(err, ErrResigned) {
		t.Errorf("TAR after resign: %v", err)
	}
	if err := f.Resign(); !errors.Is(err, ErrResigned) {
		t.Errorf("double resign: %v", err)
	}
}

func TestThreeFederateLockstep(t *testing.T) {
	// The mobile-grid shape: nodes -> adf -> broker, stepping 1 s at a
	// time for 50 steps, with messages flowing between them.
	rti := newFederation(t)
	nodes, _ := join(t, rti, "nodes")
	adf, adfRec := join(t, rti, "adf")
	brk, brkRec := join(t, rti, "broker")

	if err := nodes.PublishInteractionClass("LU"); err != nil {
		t.Fatal(err)
	}
	if err := adf.SubscribeInteractionClass("LU"); err != nil {
		t.Fatal(err)
	}
	if err := adf.PublishInteractionClass("FilteredLU"); err != nil {
		t.Fatal(err)
	}
	if err := brk.SubscribeInteractionClass("FilteredLU"); err != nil {
		t.Fatal(err)
	}

	const steps = 50
	var wg sync.WaitGroup
	wg.Add(3)
	errs := make(chan error, 3*steps)

	go func() {
		defer wg.Done()
		for i := 1; i <= steps; i++ {
			t := float64(i)
			if err := nodes.SendInteraction("LU", Values{"id": []byte{1}}, t); err != nil {
				errs <- err
				return
			}
			if err := nodes.TimeAdvanceRequest(t); err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 1; i <= steps; i++ {
			t := float64(i)
			// Forward every other LU, one lookahead later.
			if i%2 == 0 {
				if err := adf.SendInteraction("FilteredLU", Values{"id": []byte{1}}, t+1); err != nil {
					errs <- err
					return
				}
			}
			if err := adf.TimeAdvanceRequest(t); err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 1; i <= steps; i++ {
			if err := brk.TimeAdvanceRequest(float64(i)); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	adfRec.mu.Lock()
	gotLU := len(adfRec.interactions)
	adfRec.mu.Unlock()
	brkRec.mu.Lock()
	gotFiltered := len(brkRec.interactions)
	brkRec.mu.Unlock()
	// The ADF federate advanced to 50; LUs stamped 1..50 are all
	// delivered. The broker advanced to 50; filtered LUs stamped 3..51
	// are delivered up to 50 (24 of 25).
	if gotLU != steps {
		t.Errorf("adf received %d LUs, want %d", gotLU, steps)
	}
	if gotFiltered < 20 || gotFiltered > 25 {
		t.Errorf("broker received %d filtered LUs, want ≈24", gotFiltered)
	}

	// Message timestamps never violate delivery order.
	brkRec.mu.Lock()
	defer brkRec.mu.Unlock()
	for i := 1; i < len(brkRec.interactions); i++ {
		if brkRec.interactions[i].time < brkRec.interactions[i-1].time {
			t.Fatal("broker deliveries out of timestamp order")
		}
	}
}

func TestValuesCloneIsolation(t *testing.T) {
	rti := newFederation(t)
	send, _ := join(t, rti, "send")
	recv, recvRec := join(t, rti, "recv")
	if err := send.PublishInteractionClass("LU"); err != nil {
		t.Fatal(err)
	}
	if err := recv.SubscribeInteractionClass("LU"); err != nil {
		t.Fatal(err)
	}
	payload := Values{"x": []byte{42}}
	if err := send.SendInteraction("LU", payload, 2); err != nil {
		t.Fatal(err)
	}
	payload["x"][0] = 99 // sender mutates after send
	advanceBoth(t, send, recv, 3)
	recvRec.mu.Lock()
	defer recvRec.mu.Unlock()
	if got := recvRec.interactions[0].values["x"][0]; got != 42 {
		t.Errorf("received %d, want 42 (no aliasing)", got)
	}
}
