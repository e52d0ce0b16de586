//go:build !race

package hla

import (
	"fmt"
	"testing"
)

// TestRTIAllocsPerLU is the allocation gate of the TCP RTI path: over
// loopback lockstep steps (see lockstep.run), after warm-up, the whole
// process may allocate at most 8 times per LU with one receiver and 32
// with four. An LU then costs little beyond the Values each receiver
// owns: the RTI's copy per receiver and the receiving client's copy.
// The race detector's instrumentation allocates, so the gate does not
// build under -race.
func TestRTIAllocsPerLU(t *testing.T) {
	const warmup, steps = 3, 20
	for _, c := range []struct {
		receivers int
		budget    float64
	}{{1, 8}, {4, 32}} {
		t.Run(fmt.Sprintf("receivers=%d", c.receivers), func(t *testing.T) {
			l := newLockstep(t, c.receivers)
			if err := l.run(warmup); err != nil {
				t.Fatal(err)
			}
			m0 := mallocs()
			if err := l.run(steps); err != nil {
				t.Fatal(err)
			}
			perLU := float64(mallocs()-m0) / float64(steps*luBatch)
			t.Logf("%.2f allocs/LU", perLU)
			if perLU > c.budget {
				t.Errorf("%.2f allocs/LU, budget %v", perLU, c.budget)
			}
		})
	}
}
