//go:build !race

package hla

import "testing"

// TestRTIAllocsPerLU is the allocation gate of the RTI's interaction
// path: over lockstep steps (see lockstep.run), after warm-up, the
// whole process may allocate at most so many times per LU.
//
//   - Over loopback TCP the budget is 2.5 with one receiver and 8.5
//     with four (measured 2.04 and 8.09). A step's sends leave as one
//     frame, whose run of parameter blocks the RTI keeps once and the
//     server forwards to every receiver as it came, so an LU costs
//     little beyond the Values map each receiving client owns; a
//     frame's values share one backing array.
//   - In process the budget is 3.5 and 12.5 (measured 3.04 and 12.08).
//     Each receiver still gets a Values of its own.
//
// Each budget is half an allocation above its measurement, so one more
// allocation per LU fails while per-step scheduling noise does not.
//
// The race detector's instrumentation allocates, so the gate does not
// build under -race.
func TestRTIAllocsPerLU(t *testing.T) {
	const warmup, steps = 3, 20
	for _, c := range []struct {
		name      string
		tcp       bool
		receivers int
		budget    float64
	}{
		{"receivers=1", true, 1, 2.5},
		{"receivers=4", true, 4, 8.5},
		{"local/receivers=1", false, 1, 3.5},
		{"local/receivers=4", false, 4, 12.5},
	} {
		t.Run(c.name, func(t *testing.T) {
			l := newLockstep(t, c.receivers, c.tcp)
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
