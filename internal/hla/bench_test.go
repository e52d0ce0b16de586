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

// lockstep is a loopback TCP federation: one sender that publishes the
// LU interaction class and receivers that subscribe to it, each its own
// Client on its own connection to one server.
type lockstep struct {
	send  *Client
	recvs []*Client
	ambs  []*countingAmb
	lus   []Values
	steps int
}

// newLockstep starts the server and joins the federates; everything is
// closed when tb ends.
func newLockstep(tb testing.TB, receivers int) *lockstep {
	tb.Helper()
	rti := NewRTI()
	if err := rti.CreateFederation("test"); err != nil {
		tb.Fatal(err)
	}
	srv, err := NewServer(rti, "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go func() { _ = srv.Serve() }()
	tb.Cleanup(func() { _ = srv.Close() })
	addr := srv.Addr().String()
	join := func(name string, amb Ambassador) *Client {
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
	l := &lockstep{send: join("send", &recorder{})}
	if err := l.send.PublishInteractionClass("LU"); err != nil {
		tb.Fatal(err)
	}
	for i := range receivers {
		amb := &countingAmb{}
		c := join(fmt.Sprintf("recv%d", i), amb)
		if err := c.SubscribeInteractionClass("LU"); err != nil {
			tb.Fatal(err)
		}
		l.recvs = append(l.recvs, c)
		l.ambs = append(l.ambs, amb)
	}
	l.lus = make([]Values, luBatch)
	for i := range l.lus {
		l.lus[i] = luValues(i)
	}
	return l
}

// run runs n more steps: per step the sender makes luBatch pipelined
// SendInteraction calls, then it and every receiver request the time
// advance that carries the batch to the server and delivers it. It
// checks that every receiver got every LU. A federate that fails is
// closed, so the RTI resigns it and the others do not wait on it.
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
					_ = r.Close()
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
				_ = l.send.Close()
				return err
			}
		}
		if err := l.send.TimeAdvanceRequest(t); err != nil {
			_ = l.send.Close()
			return err
		}
	}
	return nil
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
// process: clients and server).
func BenchmarkRTILockstep(b *testing.B) {
	for _, receivers := range []int{1, 4} {
		b.Run(fmt.Sprintf("receivers=%d", receivers), func(b *testing.B) {
			l := newLockstep(b, receivers)
			m0 := mallocs()
			b.ResetTimer()
			err := l.run(b.N)
			b.StopTimer()
			m1 := mallocs()
			if err != nil {
				b.Fatal(err)
			}
			sent := float64(b.N * luBatch)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/sent, "ns/LU")
			b.ReportMetric(float64(m1-m0)/sent, "allocs/LU")
		})
	}
}
