package hla

import (
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"sync"
	"testing"
)

// deliveryGolden is the recorded digest of the callbacks each receiver
// of TestDeliveryGolden's scripted session sees. It is one value for
// every receiver in every configuration: over TCP and in process, with
// one receiver and with four, the same callbacks arrive in the same
// order. Any change to what is delivered, to whom, when or in which
// order moves it; how the transport frames the callbacks does not.
const deliveryGolden uint64 = 0x38e44fef55aee7e0

// digestAmb folds every callback it receives into an FNV-64a digest, in
// delivery order: the kind, the class or object, the time and the
// values in sorted key order.
type digestAmb struct {
	h     hash.Hash64
	calls int
}

func newDigestAmb() *digestAmb { return &digestAmb{h: fnv.New64a()} }

func (a *digestAmb) DiscoverObjectInstance(obj ObjectHandle, class, name string) {
	a.calls++
	fmt.Fprintf(a.h, "discover|%d|%s|%s\n", obj, class, name)
}

func (a *digestAmb) ReflectAttributeValues(obj ObjectHandle, attrs Values, t float64) {
	a.calls++
	fmt.Fprintf(a.h, "reflect|%d|%v|", obj, t)
	writeValues(a.h, attrs)
	fmt.Fprintln(a.h)
}

func (a *digestAmb) ReceiveInteraction(class string, params Values, t float64) {
	a.calls++
	fmt.Fprintf(a.h, "interaction|%s|%v|", class, t)
	writeValues(a.h, params)
	fmt.Fprintln(a.h)
}

func (a *digestAmb) RemoveObjectInstance(obj ObjectHandle) {
	a.calls++
	fmt.Fprintf(a.h, "remove|%d\n", obj)
}

func (a *digestAmb) TimeAdvanceGrant(t float64) {
	a.calls++
	fmt.Fprintf(a.h, "grant|%v\n", t)
}

// goldenFed is what the scripted session drives of a federate: a
// Client over TCP or a Federate in process.
type goldenFed interface {
	lockstepFed
	PublishObjectClass(class string, attributes []string) error
	SubscribeObjectClass(class string, attributes []string) error
	RegisterObjectInstance(class, name string) (ObjectHandle, error)
	UpdateAttributeValues(obj ObjectHandle, attrs Values, ts float64) error
	NextEventRequest(t float64) error
}

// TestDeliveryGolden pins what every receiver is delivered by a
// scripted session of one sender. Per step the sender sends two
// interaction classes, changes the timestamp inside the step and back,
// interleaves attribute updates between its sends, and makes sends the
// local check rejects; the receivers then advance, and at the end they
// step by NextEventRequest. The digest of each receiver's callbacks must
// equal deliveryGolden, with one receiver and with four, over TCP and
// in process.
func TestDeliveryGolden(t *testing.T) {
	for _, tcp := range []bool{true, false} {
		for _, receivers := range []int{1, 4} {
			name := fmt.Sprintf("local/receivers=%d", receivers)
			if tcp {
				name = fmt.Sprintf("tcp/receivers=%d", receivers)
			}
			t.Run(name, func(t *testing.T) {
				for i, amb := range runGoldenSession(t, receivers, tcp) {
					if got := amb.h.Sum64(); got != deliveryGolden {
						t.Errorf("receiver %d: %d callbacks with digest %#x, want %#x", i, amb.calls, got, deliveryGolden)
					}
				}
			})
		}
	}
}

// runGoldenSession runs TestDeliveryGolden's script and returns the
// receivers' ambassadors.
func runGoldenSession(t *testing.T, receivers int, tcp bool) []*digestAmb {
	t.Helper()
	rti := newFederation(t)
	join := func(name string, amb Ambassador) goldenFed {
		f, err := rti.Join("test", name, 1, amb)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = f.Resign() })
		return f
	}
	if tcp {
		srv, err := NewServer(rti, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = srv.Serve() }()
		t.Cleanup(func() { _ = srv.Close() })
		join = func(name string, amb Ambassador) goldenFed {
			c, err := Dial(srv.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = c.Close() })
			if err := c.Join("test", name, 1, amb); err != nil {
				t.Fatal(err)
			}
			return c
		}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	send := join("send", &recorder{})
	for _, class := range []string{"LU", "Handoff"} {
		must(send.PublishInteractionClass(class))
	}
	must(send.PublishObjectClass("Node", []string{"x", "y"}))
	var recvs []goldenFed
	var ambs []*digestAmb
	for i := range receivers {
		amb := newDigestAmb()
		r := join(fmt.Sprintf("recv%d", i), amb)
		for _, class := range []string{"LU", "Handoff"} {
			must(r.SubscribeInteractionClass(class))
		}
		must(r.SubscribeObjectClass("Node", []string{"x", "y"}))
		recvs = append(recvs, r)
		ambs = append(ambs, amb)
	}
	obj, err := send.RegisterObjectInstance("Node", "n1")
	must(err)

	// advanceAll runs every receiver's time advance to ts in the
	// background and the sender's in the foreground.
	advanceAll := func(ts float64) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make([]error, len(recvs))
		for i, r := range recvs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = r.TimeAdvanceRequest(ts)
			}()
		}
		err := send.TimeAdvanceRequest(ts)
		wg.Wait()
		must(errors.Join(append(errs, err)...))
	}
	lu := func(node, step int) Values {
		return Values{"node": {byte(node)}, "x": {byte(step), byte(node)}, "y": {byte(node), byte(step)}}
	}
	const steps = 3
	for i := 1; i <= steps; i++ {
		ts := float64(i)
		for n := range 3 {
			must(send.SendInteraction("LU", lu(n, i), ts))
		}
		must(send.UpdateAttributeValues(obj, Values{"x": {byte(i)}, "y": {byte(i + 1)}}, ts))
		must(send.SendInteraction("LU", lu(3, i), ts))
		must(send.SendInteraction("Handoff", Values{"from": {byte(i)}, "to": {byte(i + 1)}}, ts))
		must(send.SendInteraction("Handoff", Values{"from": {byte(i + 1)}, "to": {byte(i)}}, ts))
		must(send.SendInteraction("LU", lu(4, i), ts+0.5))
		must(send.SendInteraction("LU", lu(5, i), ts+0.5))
		must(send.SendInteraction("LU", lu(6, i), ts))
		if err := send.SendInteraction("LU", lu(7, i), ts-0.5); !errors.Is(err, ErrInvalidTime) {
			t.Fatalf("step %d: send below the lookahead bound: %v, want ErrInvalidTime", i, err)
		}
		if err := send.SendInteraction("Unpublished", lu(8, i), ts); !errors.Is(err, ErrNotPublished) {
			t.Fatalf("step %d: send of an unpublished class: %v, want ErrNotPublished", i, err)
		}
		must(send.SendInteraction("LU", lu(9, i), ts))
		must(send.UpdateAttributeValues(obj, Values{"x": {byte(i + 2)}}, ts+0.5))
		advanceAll(ts)
	}
	// Event stepping: the receivers' NextEventRequest is granted at the
	// earliest queued message, the last step's half-second sends, and
	// their time advance then delivers the rest.
	must(send.SendInteraction("LU", lu(10, steps+1), steps+1.5))
	var wg sync.WaitGroup
	errs := make([]error, len(recvs))
	for i, r := range recvs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = r.NextEventRequest(steps + 3)
		}()
	}
	wg.Wait()
	must(errors.Join(errs...))
	advanceAll(steps + 3)
	return ambs
}
