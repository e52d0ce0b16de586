// Package dense provides integer-keyed stores tuned for the simulator's
// hot paths. Mobile-node IDs are assigned densely from zero (see
// campus.PopulationN), so per-node state lookups — broker records, filter
// anchors, energy tallies — hit a slice index instead of hashing. Map
// and Slab store values over the ID span; Index stores only a 4-byte
// slot number per ID, for owners (the ADF's per-shard node store) that
// pack their values by first insertion. Keys outside the dense window
// (negative or very large) fall back to a regular map, so every
// structure stays a faithful map for arbitrary IDs.
package dense

// maxDense bounds the slice-backed key window. Keys in [0, maxDense) are
// stored by index; anything else goes to the fallback map. The bound keeps
// a hostile or sparse key (say, 1<<40) from allocating a giant slice.
const maxDense = 1 << 21

// Map is an int-keyed map with O(1) non-hashing access for small
// non-negative keys. The zero value is ready to use. Not safe for
// concurrent use.
type Map[V any] struct {
	vals    []V
	present []bool
	count   int
	sparse  map[int]V
}

// Get returns the value stored under key.
func (m *Map[V]) Get(key int) (V, bool) {
	if key >= 0 && key < len(m.vals) {
		return m.vals[key], m.present[key]
	}
	if m.sparse != nil {
		v, ok := m.sparse[key]
		return v, ok
	}
	var zero V
	return zero, false
}

// Put stores value under key, replacing any existing entry.
func (m *Map[V]) Put(key int, value V) {
	if key >= 0 && key < maxDense {
		var zero V
		for len(m.vals) <= key {
			m.vals = append(m.vals, zero)        // first-touch growth of the dense array, amortized by append's doubling
			m.present = append(m.present, false) // grows in step with vals
		}
		if !m.present[key] {
			m.present[key] = true
			m.count++
		}
		m.vals[key] = value
		return
	}
	if m.sparse == nil {
		m.sparse = make(map[int]V) // lazy one-time fallback for out-of-range keys
	}
	if _, ok := m.sparse[key]; !ok {
		m.count++
	}
	m.sparse[key] = value
}

// Grow extends the dense window to cover keys [0, n) up front, so a
// population of known size pays one allocation instead of append's
// doubling walk on first touch. Requests beyond the dense bound clamp
// to it; existing entries are untouched.
func (m *Map[V]) Grow(n int) {
	if n > maxDense {
		n = maxDense
	}
	if n <= len(m.vals) {
		return
	}
	vals := make([]V, n)
	copy(vals, m.vals)
	present := make([]bool, n)
	copy(present, m.present)
	m.vals, m.present = vals, present
}

// Delete removes key and reports whether it was present.
func (m *Map[V]) Delete(key int) bool {
	if key >= 0 && key < len(m.vals) {
		if !m.present[key] {
			return false
		}
		m.present[key] = false
		var zero V
		m.vals[key] = zero
		m.count--
		return true
	}
	if m.sparse != nil {
		if _, ok := m.sparse[key]; ok {
			delete(m.sparse, key)
			m.count--
			return true
		}
	}
	return false
}

// Len returns the number of stored entries.
func (m *Map[V]) Len() int { return m.count }

// Range calls f for every entry — dense keys in ascending order first,
// then fallback keys in unspecified order — until f returns false.
func (m *Map[V]) Range(f func(key int, value V) bool) {
	for k, ok := range m.present {
		if ok && !f(k, m.vals[k]) {
			return
		}
	}
	for k, v := range m.sparse {
		if !f(k, v) {
			return
		}
	}
}

// Clear removes every entry while keeping the allocated storage, so a
// reused Map reaches steady state without reallocating.
func (m *Map[V]) Clear() {
	clear(m.vals)
	clear(m.present)
	clear(m.sparse)
	m.count = 0
}
