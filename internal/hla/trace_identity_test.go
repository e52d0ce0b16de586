package hla

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"testing"

	"github.com/mobilegrid/adf/internal/obs"
)

// TestTracingPreservesDeliveryBitIdentity is the digest oracle for the
// trace-context plumbing: the exact same TCP federation run twice — once
// with observability (and therefore per-request tracing) off, once on —
// must deliver byte-identical callback streams. Trace contexts ride the
// frames and the TSO queue but may never influence delivery order,
// timestamps or payloads.
func TestTracingPreservesDeliveryBitIdentity(t *testing.T) {
	run := func(enabled bool) uint64 {
		obs.SetEnabled(enabled)
		defer obs.SetEnabled(false)
		addr := startServer(t)
		send, _ := dialJoin(t, addr, "send")
		recv, recvRec := dialJoin(t, addr, "recv")
		if err := send.PublishInteractionClass("LU"); err != nil {
			t.Fatal(err)
		}
		if err := recv.SubscribeInteractionClass("LU"); err != nil {
			t.Fatal(err)
		}

		const steps = 12
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 1; i <= steps; i++ {
				ts := float64(i)
				for n := 0; n < 4; n++ {
					v := Values{"node": {byte(n)}, "x": {byte(i), byte(n)}}
					if err := send.SendInteraction("LU", v, ts); err != nil {
						t.Error(err)
						return
					}
				}
				if err := send.TimeAdvanceRequest(ts); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 1; i <= steps; i++ {
				if err := recv.TimeAdvanceRequest(float64(i)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		wg.Wait()

		// Digest everything the receiver observed, in delivery order.
		h := fnv.New64a()
		recvRec.mu.Lock()
		defer recvRec.mu.Unlock()
		for _, in := range recvRec.interactions {
			fmt.Fprintf(h, "i|%s|%v|", in.class, in.time)
			writeValues(h, in.values)
		}
		fmt.Fprintf(h, "g|%v", recvRec.grants)
		return h.Sum64()
	}

	base := run(false)
	traced := run(true)
	if base != traced {
		t.Fatalf("delivery digest changed with tracing on: %#x (off) vs %#x (on)", base, traced)
	}
}

// writeValues hashes a Values map in deterministic key order.
func writeValues(h interface{ Write([]byte) (int, error) }, v Values) {
	keys := make([]string, 0, len(v))
	for k := range v {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		_, _ = h.Write([]byte(k))
		_, _ = h.Write(v[k])
	}
}
