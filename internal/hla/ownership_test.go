package hla

import (
	"bytes"
	"encoding/binary"
	"maps"
	"runtime"
	"slices"
	"sync"
	"testing"
	"weak"
)

// weakAmb keeps only weak pointers to the values it is delivered.
type weakAmb struct {
	recorder
	delivered []weak.Pointer[byte]
}

func (a *weakAmb) ReceiveInteraction(_ string, params Values, _ float64) {
	a.delivered = append(a.delivered, weak.Make(&params["x"][0]))
}

// TestDeliveredValuesCollectable delivers interactions in process and
// checks that once the receiver drops them, nothing in the RTI keeps
// them reachable: neither the receiver's mailbox nor its TSO queue may
// hold a delivered callback in its array. One interaction stays queued
// past the grant, so the queue keeps live entries while the delivered
// ones must be gone.
func TestDeliveredValuesCollectable(t *testing.T) {
	rti := newFederation(t)
	send, _ := join(t, rti, "send")
	amb := &weakAmb{}
	recv, err := rti.Join("test", "recv", 1, amb)
	if err != nil {
		t.Fatal(err)
	}
	if err := send.PublishInteractionClass("LU"); err != nil {
		t.Fatal(err)
	}
	if err := recv.SubscribeInteractionClass("LU"); err != nil {
		t.Fatal(err)
	}
	// 64-byte values: pointer-free objects under 16 bytes may share an
	// allocation with live ones and never be reported collected.
	for i, ts := range []float64{2, 2, 3, 9} {
		if err := send.SendInteraction("LU", Values{"x": bytes.Repeat([]byte{byte(i)}, 64)}, ts); err != nil {
			t.Fatal(err)
		}
	}
	advanceBoth(t, send, recv, 3)
	if len(amb.delivered) != 3 {
		t.Fatalf("delivered %d interactions, want 3", len(amb.delivered))
	}
	runtime.GC()
	for i, p := range amb.delivered {
		if p.Value() != nil {
			t.Errorf("delivered interaction %d is still reachable after the receiver dropped it", i)
		}
	}
	runtime.KeepAlive(send)
	runtime.KeepAlive(recv)
}

// keepAmb keeps every Values it is delivered, in delivery order.
type keepAmb struct {
	recorder
	interactions []Values
}

func (a *keepAmb) ReceiveInteraction(_ string, params Values, _ float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.interactions = append(a.interactions, params)
}

// all returns every kept Values.
func (a *keepAmb) all() []Values {
	a.mu.Lock()
	defer a.mu.Unlock()
	return slices.Clone(a.interactions)
}

// ownedParams is the i-th Values the ownership test sends: four values
// whose lengths vary, so frames and backing arrays differ in size.
func ownedParams(i int) Values {
	v := Values{"pad": bytes.Repeat([]byte{byte(i)}, i%29)}
	for k, m := range map[string]int{"node": 1, "x": 3, "y": 7} {
		v[k] = binary.BigEndian.AppendUint64(nil, uint64(i*m))
	}
	return v
}

// equalValues reports whether two Values hold the same keys and bytes.
func equalValues(a, b Values) bool {
	return maps.EqualFunc(a, b, bytes.Equal)
}

// cloneForTest deep-copies v without the code under test.
func cloneForTest(v Values) Values {
	out := make(Values, len(v))
	for k, b := range v {
		out[k] = bytes.Clone(b)
	}
	return out
}

// TestDeliveredValuesOwnedOverTCP checks that every receiver owns the
// Values it is delivered, over TCP as in process. A TCP sender sends
// interactions, refilling one Values in place between sends, to two
// TCP receivers and one in-process receiver. Each receiver keeps
// every delivered Values across all advances; afterwards — long after
// later frames were read into the connections' reused buffers — each
// kept Values must still equal what was sent. Then each receiver in
// turn modifies its copies, by append and in place: an append must not
// change any other value in the same map, and no receiver's changes may
// show in another receiver's copies.
func TestDeliveredValuesOwnedOverTCP(t *testing.T) {
	const steps, perStep = 6, 40
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
	addr := srv.Addr().String()

	send, _ := dialJoin(t, addr, "send")
	if err := send.PublishInteractionClass("LU"); err != nil {
		t.Fatal(err)
	}
	type receiver struct {
		name string
		amb  *keepAmb
		fed  interface {
			SubscribeInteractionClass(string) error
			TimeAdvanceRequest(float64) error
		}
	}
	var recvs []*receiver
	for _, r := range []struct {
		name string
		tcp  bool
	}{{"tcp1", true}, {"tcp2", true}, {"local", false}} {
		rv := &receiver{name: r.name, amb: &keepAmb{}}
		if r.tcp {
			c, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = c.Close() })
			if err := c.Join("test", r.name, 1, rv.amb); err != nil {
				t.Fatal(err)
			}
			rv.fed = c
		} else {
			f, err := rti.Join("test", r.name, 1, rv.amb)
			if err != nil {
				t.Fatal(err)
			}
			rv.fed = f
		}
		if err := rv.fed.SubscribeInteractionClass("LU"); err != nil {
			t.Fatal(err)
		}
		recvs = append(recvs, rv)
	}

	// want holds what each receiver should have kept, in its order.
	var want []Values
	for n := range steps * perStep {
		want = append(want, ownedParams(n))
	}

	var wg sync.WaitGroup
	for _, r := range recvs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for step := 1; step <= steps; step++ {
				if err := r.fed.TimeAdvanceRequest(float64(step)); err != nil {
					t.Errorf("%s: advance to %d: %v", r.name, step, err)
					return
				}
			}
		}()
	}
	// The sender refills one map in place for every send: a delivered
	// copy must not depend on the sender's map after the call.
	buf := Values{}
	refill := func(v Values) {
		clear(buf)
		for k, b := range v {
			buf[k] = append(buf[k][:0], b...)
		}
	}
	for step := 1; step <= steps; step++ {
		ts := float64(step)
		for n := (step - 1) * perStep; n < step*perStep; n++ {
			refill(ownedParams(n))
			if err := send.SendInteraction("LU", buf, ts); err != nil {
				t.Fatal(err)
			}
		}
		if err := send.TimeAdvanceRequest(ts); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	check := func(i int, flipped bool) {
		t.Helper()
		got := recvs[i].amb.all()
		if len(got) != len(want) {
			t.Fatalf("%s kept %d Values, want %d", recvs[i].name, len(got), len(want))
		}
		for n, v := range got {
			w := want[n]
			if flipped {
				w = cloneForTest(w)
				for _, b := range w {
					for j := range b {
						b[j] ^= 0xFF
					}
				}
			}
			if !equalValues(v, w) {
				t.Fatalf("%s: Values %d = %v, want %v", recvs[i].name, n, v, w)
			}
		}
	}
	for i := range recvs {
		check(i, false)
	}
	for i, r := range recvs {
		for n, v := range r.amb.all() {
			for _, k := range slices.Sorted(maps.Keys(v)) {
				before := cloneForTest(v)
				_ = append(v[k], 0xEE, 0xEE, 0xEE, 0xEE)
				if !equalValues(v, before) {
					t.Fatalf("%s: Values %d: appending to %q changed the map: %v, was %v", r.name, n, k, v, before)
				}
			}
			for _, b := range v {
				for j := range b {
					b[j] ^= 0xFF
				}
			}
		}
		check(i, true)
		for j := i + 1; j < len(recvs); j++ {
			check(j, false)
		}
	}
}
