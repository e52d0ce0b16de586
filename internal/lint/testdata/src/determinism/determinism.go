// Package determinism exercises the determinism analyzer: wall-clock
// reads and draws from the global math/rand source.
package determinism

import (
	"math/rand"
	"time"
)

// clockFn shows that referencing a banned function as a value is flagged
// too, not just calling it.
var clockFn = time.Now

// Clock reads the wall clock in the three forbidden ways.
func Clock(t0 time.Time) (time.Time, time.Duration, time.Duration) {
	now := time.Now()
	since := time.Since(t0)
	until := time.Until(t0)
	return now, since, until
}

// Draw uses the global math/rand source (forbidden) next to a private
// source (allowed: rand.New/rand.NewSource only construct).
func Draw() (int, float64) {
	n := rand.Intn(10)
	r := rand.New(rand.NewSource(1))
	return n, r.Float64()
}

// Sanctioned demonstrates the escape hatch on the line above and on the
// same line.
func Sanctioned() (time.Time, time.Time) {
	//adf:allow determinism — fixture: documented measurement-only use
	start := time.Now()
	return start, time.Now() //adf:allow determinism — fixture
}
