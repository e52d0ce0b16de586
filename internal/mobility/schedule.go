package mobility

import (
	"fmt"
	"math"
	"sort"

	"github.com/mobilegrid/adf/internal/geo"
)

// Phase is one leg of a scheduled day: a mobility model that is active
// until the phase's duration elapses.
type Phase struct {
	// Name labels the phase ("lecture", "walk to library", ...).
	Name string
	// Duration is how long the phase lasts, in seconds. Must be positive.
	Duration float64
	// Model drives the movement during the phase.
	Model Model
}

// Schedule chains mobility phases into a daily routine, like the paper's
// "Tom" scenario (section 3.1): walk to the library, study, attend a
// lecture, wander a laboratory, leave through the gate. When a phase
// ends the next phase's model takes over from wherever it starts; the
// schedule holds its final position once the last phase ends.
type Schedule struct {
	phases  []Phase
	offsets []float64 // cumulative end time of each phase
	elapsed float64
	idx     int
}

var _ Model = (*Schedule)(nil)

// NewSchedule builds a schedule from phases in order.
func NewSchedule(phases []Phase) (*Schedule, error) {
	if len(phases) == 0 {
		return nil, fmt.Errorf("mobility: empty schedule")
	}
	s := &Schedule{phases: append([]Phase(nil), phases...)}
	var total float64
	for i, p := range s.phases {
		if p.Model == nil {
			return nil, fmt.Errorf("mobility: phase %d (%q) has no model", i, p.Name)
		}
		// A NaN duration fails every comparison, so ask for > 0 directly.
		if !(p.Duration > 0) || math.IsInf(p.Duration, 1) {
			return nil, fmt.Errorf("mobility: phase %d (%q) Duration %v not positive and finite", i, p.Name, p.Duration)
		}
		total += p.Duration
		s.offsets = append(s.offsets, total)
	}
	return s, nil
}

// TotalDuration returns the schedule's full length in seconds.
func (s *Schedule) TotalDuration() float64 {
	return s.offsets[len(s.offsets)-1]
}

// Phase returns the name of the currently active phase ("done" after the
// end).
func (s *Schedule) Phase() string {
	if s.idx >= len(s.phases) {
		return "done"
	}
	return s.phases[s.idx].Name
}

// Advance implements Model: it advances through phases, splitting dt
// across phase boundaries.
func (s *Schedule) Advance(dt float64) geo.Point {
	remaining := dt
	for remaining > 0 && s.idx < len(s.phases) {
		budget := s.offsets[s.idx] - s.elapsed
		step := remaining
		if step > budget {
			step = budget
		}
		s.phases[s.idx].Model.Advance(step)
		s.elapsed += step
		remaining -= step
		if s.elapsed >= s.offsets[s.idx] {
			s.idx++
		}
	}
	s.elapsed += remaining // time keeps passing after the last phase
	return s.Pos()
}

// Pos implements Model: the active phase's position, or the last phase's
// final position when done.
func (s *Schedule) Pos() geo.Point {
	i := s.idx
	if i >= len(s.phases) {
		i = len(s.phases) - 1
	}
	return s.phases[i].Model.Pos()
}

// PhaseAt returns the name of the phase active at the given elapsed time
// (for tests and reports); "done" past the end.
func (s *Schedule) PhaseAt(elapsed float64) string {
	i := sort.SearchFloat64s(s.offsets, elapsed)
	if i >= len(s.phases) {
		return "done"
	}
	// An exact boundary hit belongs to the next phase; the bit-identity
	// test is intentional (SearchFloat64s already compared with <).
	if geo.SameBits(elapsed, s.offsets[i]) {
		i++
		if i >= len(s.phases) {
			return "done"
		}
	}
	return s.phases[i].Name
}
