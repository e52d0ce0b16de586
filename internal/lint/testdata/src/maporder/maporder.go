// Package maporder exercises the maporder analyzer (the fixture is
// loaded as a simulation package).
package maporder

import (
	"slices"
	"sort"
)

// Sum accumulates floats in map order. Float addition is not
// associative, so the sum's bits depend on iteration order: flagged.
func Sum(m map[int]float64) float64 {
	var total float64
	for _, v := range m {
		total += v
	}
	return total
}

// Count only increments an integer: commutative, not flagged.
func Count(m map[int]float64) int {
	n := 0
	for range m {
		n++
	}
	return n
}

// Keys collects the keys and sorts them immediately: not flagged.
func Keys(m map[int]float64) []int {
	var ks []int
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}

// Names is the same pattern through the sort package: not flagged.
func Names(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Emit streams values into a sink in map order: flagged.
func Emit(m map[int]string, sink func(string)) {
	for _, v := range m {
		sink(v)
	}
}

// Collect gathers without sorting afterwards: flagged.
func Collect(m map[int]string) []string {
	var out []string
	for _, v := range m {
		out = append(out, v)
	}
	return out
}

// Drop deletes every key while ranging: commutative, not flagged.
func Drop(m map[int]bool) {
	for k := range m {
		delete(m, k)
	}
}

// Justified carries the escape hatch: not flagged.
func Justified(m map[int]int, sink func(int)) {
	//adf:allow maporder — fixture: the sink is order-insensitive
	for _, v := range m {
		sink(v)
	}
}
