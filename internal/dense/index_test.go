package dense

import (
	"slices"
	"testing"

	"github.com/mobilegrid/adf/internal/sim"
)

// TestIndexMatchesMapAndOrders checks Index against a plain map over
// random keys inside and outside the dense window, and that Range visits
// every key exactly once in ascending order.
func TestIndexMatchesMapAndOrders(t *testing.T) {
	rng := sim.NewRNG(5)
	var x Index
	x.Grow(64)
	want := map[int]int{}
	pick := func() int {
		switch r := rng.Float64(); {
		case r < 0.2:
			return -1 - rng.Intn(1<<40)
		case r < 0.3:
			return maxDense + rng.Intn(1<<40)
		default:
			return rng.Intn(300)
		}
	}
	for i := 0; i < 2000; i++ {
		k := pick()
		x.Put(k, i)
		want[k] = i
		probe := pick()
		got, ok := x.Get(probe)
		w, wok := want[probe]
		if ok != wok || (ok && got != w) {
			t.Fatalf("Get(%d) = %d, %v; want %d, %v", probe, got, ok, w, wok)
		}
	}
	var keys []int
	x.Range(func(k, slot int) bool {
		if want[k] != slot {
			t.Fatalf("Range(%d) slot %d, want %d", k, slot, want[k])
		}
		keys = append(keys, k)
		return true
	})
	if len(keys) != len(want) || !slices.IsSorted(keys) {
		t.Fatalf("Range visited %d keys (sorted=%v), want %d ascending", len(keys), slices.IsSorted(keys), len(want))
	}
	n := 0
	x.Range(func(int, int) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("Range continued after false: %d calls", n)
	}
}

// TestIndexGrowClamps checks that Grow keeps entries and clamps at the
// dense bound.
func TestIndexGrowClamps(t *testing.T) {
	var x Index
	x.Put(5, 0)
	x.Grow(maxDense + 1)
	if len(x.slots) != maxDense {
		t.Fatalf("dense window %d, want clamp at %d", len(x.slots), maxDense)
	}
	if s, ok := x.Get(5); !ok || s != 0 {
		t.Fatalf("Get(5) after Grow = %d, %v", s, ok)
	}
	if _, ok := x.Get(6); ok {
		t.Fatal("grown key reports presence before Put")
	}
}
