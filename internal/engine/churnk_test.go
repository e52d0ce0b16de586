package engine

import (
	"math"
	"sort"
	"testing"

	"github.com/mobilegrid/adf/internal/sim"
)

// recordSink collects churn events for inspection.
type recordSink struct {
	left, rejoined []int
}

func (r *recordSink) ChurnEvent(id int, left bool) {
	if left {
		r.left = append(r.left, id)
	} else {
		r.rejoined = append(r.rejoined, id)
	}
}

func (r *recordSink) reset() { r.left, r.rejoined = r.left[:0], r.rejoined[:0] }

func seqIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// TestKeyedChurnMatchesBernoulliStatistics checks the skip-ahead
// timeline against the per-tick Bernoulli model it replaces: the
// steady-state absent fraction must settle at leave/(leave+rejoin), the
// absence durations must follow Geometric(rejoin) (mean 1/rejoin, pmf
// rejoin*(1-rejoin)^(k-1)), and the total departure count must match
// the Bernoulli departure rate of the present population.
func TestKeyedChurnMatchesBernoulliStatistics(t *testing.T) {
	const (
		nodes  = 1000
		ticks  = 3000
		warmup = 200
		leave  = 0.05
		rejoin = 0.2
	)
	c := NewKeyedChurn(leave, rejoin, sim.NewKeyed(1))
	c.InitParts([][]int{seqIDs(nodes)})
	var sink recordSink
	departedAt := make(map[int]uint64)
	var durSum float64
	durPMF := make([]int, 12)
	durN := 0
	var absentTicks, departures, presentTicks int
	for tick := uint64(1); tick <= ticks; tick++ {
		sink.reset()
		c.ProcessPart(0, tick, &sink)
		for _, id := range sink.left {
			departedAt[id] = tick
			if tick > warmup {
				departures++
			}
		}
		for _, id := range sink.rejoined {
			dur := tick - departedAt[id]
			durSum += float64(dur)
			if int(dur) < len(durPMF) {
				durPMF[dur]++
			}
			durN++
		}
		if tick > warmup {
			a := c.AbsentCount()
			absentTicks += a
			presentTicks += nodes - a
		}
	}
	steady := float64(ticks - warmup)
	wantAbsent := leave / (leave + rejoin)
	if frac := float64(absentTicks) / (steady * nodes); math.Abs(frac-wantAbsent) > 0.02 {
		t.Errorf("steady-state absent fraction %.4f, want %.4f ± 0.02", frac, wantAbsent)
	}
	if mean, want := durSum/float64(durN), 1/rejoin; math.Abs(mean-want) > 0.05*want {
		t.Errorf("mean absence duration %.3f ticks, want %.3f ± 5%%", mean, want)
	}
	for d := 1; d <= 8; d++ {
		got := float64(durPMF[d]) / float64(durN)
		theory := rejoin * math.Pow(1-rejoin, float64(d-1))
		if math.Abs(got-theory) > 0.012 {
			t.Errorf("P(absence lasts %d ticks) = %.4f, theory %.4f", d, got, theory)
		}
	}
	// Each present node-tick departs with probability leave.
	if rate := float64(departures) / float64(presentTicks); math.Abs(rate-leave) > 0.1*leave {
		t.Errorf("departure rate %.5f per present node-tick, want %.5f ± 10%%", rate, leave)
	}
}

// TestKeyedChurnPartitionInvariance is the property the sharded
// pipeline rests on: slicing the same population into different
// partition layouts must yield the identical flips on the identical
// ticks, because every draw is keyed by the node, never by the
// partition.
func TestKeyedChurnPartitionInvariance(t *testing.T) {
	const (
		nodes = 400
		ticks = 500
	)
	ids := seqIDs(nodes)
	one := NewKeyedChurn(0.1, 0.3, sim.NewKeyed(7))
	one.InitParts([][]int{ids})
	four := NewKeyedChurn(0.1, 0.3, sim.NewKeyed(7))
	quarters := make([][]int, 4)
	for i, id := range ids {
		quarters[i%4] = append(quarters[i%4], id)
	}
	four.InitParts(quarters)
	var a, b recordSink
	for tick := uint64(1); tick <= ticks; tick++ {
		a.reset()
		b.reset()
		one.ProcessPart(0, tick, &a)
		for part := 0; part < 4; part++ {
			four.ProcessPart(part, tick, &b)
		}
		sort.Ints(a.left)
		sort.Ints(a.rejoined)
		sort.Ints(b.left)
		sort.Ints(b.rejoined)
		if !equalInts(a.left, b.left) || !equalInts(a.rejoined, b.rejoined) {
			t.Fatalf("tick %d: 1-part events (left %v, rejoin %v) != 4-part events (left %v, rejoin %v)",
				tick, a.left, a.rejoined, b.left, b.rejoined)
		}
		if one.AbsentCount() != four.AbsentCount() {
			t.Fatalf("tick %d: absent count %d (1 part) != %d (4 parts)", tick, one.AbsentCount(), four.AbsentCount())
		}
		for _, id := range ids {
			if one.Absent(id) != four.Absent(id) {
				t.Fatalf("tick %d: node %d absent=%v in 1 part, %v in 4 parts", tick, id, one.Absent(id), four.Absent(id))
			}
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestKeyedChurnNoLeaveIsInert ensures a zero leave probability
// schedules nothing: no draws, no events, no absences.
func TestKeyedChurnNoLeaveIsInert(t *testing.T) {
	c := NewKeyedChurn(0, 0.5, sim.NewKeyed(1))
	c.InitParts([][]int{seqIDs(10)})
	var sink recordSink
	for tick := uint64(1); tick <= 100; tick++ {
		c.ProcessPart(0, tick, &sink)
	}
	if len(sink.left)+len(sink.rejoined) != 0 || c.AbsentCount() != 0 {
		t.Fatalf("leave=0 produced events (%d left, %d rejoined, %d absent)", len(sink.left), len(sink.rejoined), c.AbsentCount())
	}
}
