package hla

import (
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

// BenchmarkRTILockstep is the loopback send→deliver path plus fan-out
// over the TCP transport: per step, one sender makes luBatch pipelined
// SendInteraction calls, then it and every receiver request the time
// advance that carries the batch to the server and delivers it. One op
// is one step; ns/LU and allocs/LU divide by the LUs sent (allocations
// count the whole process: clients and server).
func BenchmarkRTILockstep(b *testing.B) {
	for _, receivers := range []int{1, 4} {
		b.Run(fmt.Sprintf("receivers=%d", receivers), func(b *testing.B) {
			benchLockstep(b, receivers)
		})
	}
}

func benchLockstep(b *testing.B, receivers int) {
	rti := NewRTI()
	if err := rti.CreateFederation("test"); err != nil {
		b.Fatal(err)
	}
	srv, err := NewServer(rti, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go func() { _ = srv.Serve() }()
	defer func() { _ = srv.Close() }()
	addr := srv.Addr().String()
	join := func(name string, amb Ambassador) *Client {
		c, err := Dial(addr)
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Join("test", name, 1, amb); err != nil {
			b.Fatal(err)
		}
		return c
	}
	send := join("send", &recorder{})
	defer func() { _ = send.Close() }()
	if err := send.PublishInteractionClass("LU"); err != nil {
		b.Fatal(err)
	}
	recvs := make([]*Client, receivers)
	ambs := make([]*countingAmb, receivers)
	for i := range recvs {
		ambs[i] = &countingAmb{}
		recvs[i] = join(fmt.Sprintf("recv%d", i), ambs[i])
		defer func(c *Client) { _ = c.Close() }(recvs[i])
		if err := recvs[i].SubscribeInteractionClass("LU"); err != nil {
			b.Fatal(err)
		}
	}
	lus := make([]Values, luBatch)
	for i := range lus {
		lus[i] = luValues(i)
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	var wg sync.WaitGroup
	errs := make(chan error, receivers)
	for _, r := range recvs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for step := 1; step <= b.N; step++ {
				if err := r.TimeAdvanceRequest(float64(step)); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for step := 1; step <= b.N; step++ {
		t := float64(step)
		for _, v := range lus {
			if err := send.SendInteraction("LU", v, t); err != nil {
				b.Fatal(err)
			}
		}
		if err := send.TimeAdvanceRequest(t); err != nil {
			b.Fatal(err)
		}
	}
	wg.Wait()
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	close(errs)
	for err := range errs {
		b.Fatal(err)
	}
	for i, a := range ambs {
		if a.received != b.N*luBatch {
			b.Fatalf("receiver %d got %d LUs, want %d", i, a.received, b.N*luBatch)
		}
	}
	sent := float64(b.N * luBatch)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/sent, "ns/LU")
	b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/sent, "allocs/LU")
}
