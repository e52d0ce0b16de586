package dense

import "slices"

// Index maps int keys to slot numbers in a caller-owned value slice: the
// key half of a compact store whose values live packed in first-insertion
// order rather than spread over the key span. Each dense key costs four
// bytes here, so a store preallocated over a wide ID span stays small
// while its values grow only with the keys actually inserted. Keys
// outside the dense window (negative, or at least maxDense) fall back to
// a map. The zero value is ready to use. Not safe for concurrent use.
type Index struct {
	// slots holds slot+1 per dense key; 0 marks an absent key.
	slots  []int32
	sparse map[int]int32
	// sparseKeys lists the fallback keys ascending, so Range can visit
	// every key in order without sorting.
	sparseKeys []int
}

// Grow extends the dense window to cover keys [0, n) up front. Requests
// beyond the dense bound clamp to it; existing entries are untouched.
func (x *Index) Grow(n int) {
	if n > maxDense {
		n = maxDense
	}
	if n <= len(x.slots) {
		return
	}
	slots := make([]int32, n)
	copy(slots, x.slots)
	x.slots = slots
}

// Get returns the slot stored under key.
func (x *Index) Get(key int) (int, bool) {
	if key >= 0 && key < len(x.slots) {
		s := x.slots[key]
		return int(s) - 1, s != 0
	}
	s, ok := x.sparse[key]
	return int(s), ok
}

// Put stores slot under key, replacing any existing entry. Keys past the
// grown window but below the dense bound grow it by doubling.
func (x *Index) Put(key, slot int) {
	if key >= 0 && key < maxDense {
		if key >= len(x.slots) {
			x.Grow(growSize(key))
		}
		x.slots[key] = int32(slot + 1)
		return
	}
	if x.sparse == nil {
		x.sparse = make(map[int]int32)
	}
	if _, ok := x.sparse[key]; !ok {
		i, _ := slices.BinarySearch(x.sparseKeys, key)
		x.sparseKeys = slices.Insert(x.sparseKeys, i, key)
	}
	x.sparse[key] = int32(slot)
}

// Range calls f for every key in ascending order — negative fallback
// keys, then the dense window, then fallback keys past it — until f
// returns false.
func (x *Index) Range(f func(key, slot int) bool) {
	neg, _ := slices.BinarySearch(x.sparseKeys, 0)
	for _, k := range x.sparseKeys[:neg] {
		if !f(k, int(x.sparse[k])) {
			return
		}
	}
	for k, s := range x.slots {
		if s != 0 && !f(k, int(s)-1) {
			return
		}
	}
	for _, k := range x.sparseKeys[neg:] {
		if !f(k, int(x.sparse[k])) {
			return
		}
	}
}
