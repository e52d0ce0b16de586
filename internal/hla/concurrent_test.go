package hla

import (
	"bufio"
	"fmt"
	"io"
	"sync"
	"testing"
)

// These tests touch mutex-guarded state from two goroutines at once, so
// that under -race (make race repeats them) an access that skips its
// lock is a reported data race.

// TestRTIConcurrentCreateAndLookup creates federations while another
// goroutine looks them up.
func TestRTIConcurrentCreateAndLookup(t *testing.T) {
	const n = 200
	r := NewRTI()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if err := r.CreateFederation(fmt.Sprintf("f%d", i)); err != nil {
				t.Error(err)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			_, _ = r.federation(fmt.Sprintf("f%d", i))
		}
	}()
	wg.Wait()
	if got := len(r.Snapshot()); got != n {
		t.Errorf("%d federations, want %d", got, n)
	}
}

// TestConnWriterConcurrentWriteAndFlush buffers acks on one goroutine
// while another flushes, as the request handler and the RTI callback
// path do on one connection.
func TestConnWriterConcurrentWriteAndFlush(t *testing.T) {
	w := &connWriter{bw: bufio.NewWriterSize(io.Discard, 64)}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			w.writeOK()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			_ = w.flush()
		}
	}()
	wg.Wait()
	if err := w.flush(); err != nil {
		t.Fatal(err)
	}
}

// TestFederateTimeConcurrentWithAdvance reads both federates' logical
// times while they advance in lockstep: each grant is written by
// whichever federate's request releases it.
func TestFederateTimeConcurrentWithAdvance(t *testing.T) {
	const steps = 50
	rti := newFederation(t)
	a, _ := join(t, rti, "a")
	b, _ := join(t, rti, "b")
	var wg sync.WaitGroup
	for _, f := range []*Federate{a, b} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 1; k <= steps; k++ {
				if err := f.TimeAdvanceRequest(float64(k)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for {
		select {
		case <-done:
			if a.Time() != steps || b.Time() != steps {
				t.Errorf("times %v and %v, want %d", a.Time(), b.Time(), steps)
			}
			return
		default:
			_, _ = a.Time(), b.Time()
		}
	}
}
