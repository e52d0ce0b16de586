package hla

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// luBatch is the LUs one lockstep step sends: the ADF 1.00av rate of
// the 1,008-node mobile-grid population.
const luBatch = 405

// countingAmb counts delivered interactions.
type countingAmb struct {
	recorder
	received int
}

func (a *countingAmb) ReceiveInteraction(string, Values, float64) { a.received++ }

// lockstepFed is what a lockstep drives of a federate: a Client over
// TCP or a Federate in process.
type lockstepFed interface {
	PublishInteractionClass(class string) error
	SubscribeInteractionClass(class string) error
	SendInteraction(class string, params Values, ts float64) error
	TimeAdvanceRequest(t float64) error
}

// quit ends a federate that failed, so the RTI resigns it and the
// others do not wait on it.
func quit(f lockstepFed) {
	switch f := f.(type) {
	case *Client:
		_ = f.Close()
	case *Federate:
		_ = f.Resign()
	}
}

// lockstep is a federation of one sender that publishes the LU
// interaction class and receivers that subscribe to it: over loopback
// TCP, each its own Client on its own connection to one server, or all
// in process.
type lockstep struct {
	rti   *RTI
	send  lockstepFed
	recvs []lockstepFed
	ambs  []*countingAmb
	lus   []Values
	steps int
}

// newLockstep starts the RTI (and, for tcp, its server) and joins the
// federates; everything is closed when tb ends.
func newLockstep(tb testing.TB, receivers int, tcp bool) *lockstep {
	tb.Helper()
	rti := NewRTI()
	if err := rti.CreateFederation("test"); err != nil {
		tb.Fatal(err)
	}
	join := func(name string, amb Ambassador) lockstepFed {
		f, err := rti.Join("test", name, 1, amb)
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { _ = f.Resign() })
		return f
	}
	if tcp {
		srv, err := NewServer(rti, "127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		go func() { _ = srv.Serve() }()
		tb.Cleanup(func() { _ = srv.Close() })
		addr := srv.Addr().String()
		join = func(name string, amb Ambassador) lockstepFed {
			c, err := Dial(addr)
			if err != nil {
				tb.Fatal(err)
			}
			tb.Cleanup(func() { _ = c.Close() })
			if err := c.Join("test", name, 1, amb); err != nil {
				tb.Fatal(err)
			}
			return c
		}
	}
	l := &lockstep{rti: rti, send: join("send", &recorder{})}
	if err := l.send.PublishInteractionClass("LU"); err != nil {
		tb.Fatal(err)
	}
	for i := range receivers {
		amb := &countingAmb{}
		f := join(fmt.Sprintf("recv%d", i), amb)
		if err := f.SubscribeInteractionClass("LU"); err != nil {
			tb.Fatal(err)
		}
		l.recvs = append(l.recvs, f)
		l.ambs = append(l.ambs, amb)
	}
	l.lus = make([]Values, luBatch)
	for i := range l.lus {
		l.lus[i] = luValues(i)
	}
	return l
}

// run runs n more steps: per step the sender makes luBatch
// SendInteraction calls (pipelined over TCP), then it and every
// receiver request the time advance that delivers the batch. It checks
// that every receiver got every LU.
func (l *lockstep) run(n int) error {
	from := l.steps + 1
	l.steps += n
	var wg sync.WaitGroup
	errs := make([]error, len(l.recvs)+1)
	for i, r := range l.recvs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for step := from; step <= l.steps; step++ {
				if err := r.TimeAdvanceRequest(float64(step)); err != nil {
					errs[i] = err
					quit(r)
					return
				}
			}
		}()
	}
	errs[len(l.recvs)] = l.sendSteps(from)
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	for i, a := range l.ambs {
		if a.received != l.steps*luBatch {
			return fmt.Errorf("receiver %d got %d LUs, want %d", i, a.received, l.steps*luBatch)
		}
	}
	return nil
}

// sendSteps is the sender's half of run.
func (l *lockstep) sendSteps(from int) error {
	for step := from; step <= l.steps; step++ {
		t := float64(step)
		for _, v := range l.lus {
			if err := l.send.SendInteraction("LU", v, t); err != nil {
				quit(l.send)
				return err
			}
		}
		if err := l.send.TimeAdvanceRequest(t); err != nil {
			quit(l.send)
			return err
		}
	}
	return nil
}

// queued returns the messages the federation has routed to a TSO queue
// so far: one per receiver of each interaction frame.
func (l *lockstep) queued() uint64 {
	fed, err := l.rti.federation("test")
	if err != nil {
		panic(err)
	}
	fed.mu.Lock()
	defer fed.mu.Unlock()
	return fed.seq
}

// mallocs returns the heap allocations the process has made so far.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// BenchmarkRTILockstep is the loopback send→deliver path plus fan-out
// over the TCP transport (see lockstep.run). One op is one step; ns/LU
// and allocs/LU divide by the LUs sent (allocations count the whole
// process: clients and server). interactions/frame is the mean run
// length, the LUs each interaction frame carries: the RTI queues one
// message per receiver of each frame.
func BenchmarkRTILockstep(b *testing.B) {
	for _, receivers := range []int{1, 4} {
		b.Run(fmt.Sprintf("receivers=%d", receivers), func(b *testing.B) {
			l := newLockstep(b, receivers, true)
			q0, m0 := l.queued(), mallocs()
			b.ResetTimer()
			err := l.run(b.N)
			b.StopTimer()
			q1, m1 := l.queued(), mallocs()
			if err != nil {
				b.Fatal(err)
			}
			sent := float64(b.N * luBatch)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/sent, "ns/LU")
			b.ReportMetric(float64(m1-m0)/sent, "allocs/LU")
			b.ReportMetric(sent*float64(receivers)/float64(q1-q0), "interactions/frame")
		})
	}
}
