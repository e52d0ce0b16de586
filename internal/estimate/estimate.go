// Package estimate implements the location-estimation methods the grid
// broker uses to repair filtered location updates.
//
// The paper's Location Estimator (LE) is Brown's double exponential
// smoothing (McClave, Benson & Sincich, "Statistics for Business and
// Economics"): the broker smooths the moving node's speed and direction
// over the received updates, then extrapolates the next coordinates with
// the trigonometric projection of the smoothed motion. The package also
// provides single exponential smoothing, dead reckoning, an AR(1) model,
// and a no-op last-known-location estimator for the "without LE" baseline,
// so experiments can compare them.
package estimate

import (
	"fmt"
	"math"

	"github.com/mobilegrid/adf/internal/geo"
)

// PositionEstimator forecasts a mobile node's position between received
// location updates. Observe must be called with strictly increasing
// timestamps; Predict may be called for any time at or after the latest
// observation.
type PositionEstimator interface {
	// Observe records a received (unfiltered) location update.
	Observe(t float64, p geo.Point)
	// Predict forecasts the node's position at time t.
	Predict(t float64) geo.Point
	// Ready reports whether the estimator has seen enough updates to
	// produce a meaningful forecast.
	Ready() bool
	// Reset forgets every observation: the estimator then behaves
	// exactly as its constructor left it, so a tracked node that leaves
	// and rejoins reuses its estimator in place.
	Reset()
}

// Factory builds one estimator instance per tracked node.
type Factory func() PositionEstimator

// LastKnown is the "without LE" baseline: the broker simply believes the
// last reported location.
type LastKnown struct {
	has  bool
	last geo.Point
}

var _ PositionEstimator = (*LastKnown)(nil)

// NewLastKnown returns a last-known-location estimator.
func NewLastKnown() *LastKnown { return &LastKnown{} }

// Observe implements PositionEstimator.
func (e *LastKnown) Observe(_ float64, p geo.Point) {
	e.has = true
	e.last = p
}

// Predict implements PositionEstimator.
func (e *LastKnown) Predict(float64) geo.Point { return e.last }

// Ready implements PositionEstimator.
func (e *LastKnown) Ready() bool { return e.has }

// Reset implements PositionEstimator.
func (e *LastKnown) Reset() { *e = LastKnown{} }

// Brown is scalar double exponential smoothing. After each Observe the
// smoothed level and trend are available and Forecast extrapolates h steps
// ahead. The zero value is not usable; construct with NewBrown.
type Brown struct {
	alpha  float64
	s1, s2 float64
	n      int
}

// NewBrown returns a double-exponential smoother with smoothing constant
// alpha in (0, 1).
func NewBrown(alpha float64) (*Brown, error) {
	if err := checkAlpha(alpha); err != nil {
		return nil, err
	}
	return &Brown{alpha: alpha}, nil
}

// checkAlpha validates a smoothing constant.
func checkAlpha(alpha float64) error {
	if alpha <= 0 || alpha >= 1 {
		return fmt.Errorf("estimate: alpha %v outside (0, 1)", alpha)
	}
	return nil
}

// Observe feeds the next sample.
func (b *Brown) Observe(x float64) {
	if b.n == 0 {
		b.s1, b.s2 = x, x
	} else {
		b.s1 = b.alpha*x + (1-b.alpha)*b.s1
		b.s2 = b.alpha*b.s1 + (1-b.alpha)*b.s2
	}
	b.n++
}

// N returns the number of samples observed.
func (b *Brown) N() int { return b.n }

// Level returns the smoothed level estimate 2·S′ − S″.
func (b *Brown) Level() float64 { return 2*b.s1 - b.s2 }

// Trend returns the smoothed per-step trend α/(1−α)·(S′ − S″).
func (b *Brown) Trend() float64 {
	return b.alpha / (1 - b.alpha) * (b.s1 - b.s2)
}

// Forecast extrapolates h steps past the last observation.
func (b *Brown) Forecast(h float64) float64 {
	return b.Level() + h*b.Trend()
}

// Single is scalar single exponential smoothing, a trendless comparator
// for Brown.
type Single struct {
	alpha float64
	s     float64
	n     int
}

// NewSingle returns a single-exponential smoother with smoothing constant
// alpha in (0, 1).
func NewSingle(alpha float64) (*Single, error) {
	if err := checkAlpha(alpha); err != nil {
		return nil, err
	}
	return &Single{alpha: alpha}, nil
}

// Observe feeds the next sample.
func (s *Single) Observe(x float64) {
	if s.n == 0 {
		s.s = x
	} else {
		s.s = s.alpha*x + (1-s.alpha)*s.s
	}
	s.n++
}

// Level returns the smoothed value.
func (s *Single) Level() float64 { return s.s }

// N returns the number of samples observed.
func (s *Single) N() int { return s.n }

// motionTracker derives per-update speed and heading samples from a
// position stream; the concrete estimators feed those samples into their
// smoothers.
type motionTracker struct {
	n     int
	lastT float64
	lastP geo.Point
}

// observe returns the (speed, heading, ok) derived from the new sample;
// ok is false for the first sample or non-advancing timestamps.
func (m *motionTracker) observe(t float64, p geo.Point) (speed, heading float64, ok bool) {
	d, dt, ok := m.step(t, p)
	if !ok {
		return 0, 0, false
	}
	return d.Len() / dt, d.Heading(), true
}

// step records the new sample and returns its displacement from the
// previous one and the elapsed time; ok is false for the first sample or
// non-advancing timestamps. Callers that need both the displacement's
// length and its heading derive them from d once.
func (m *motionTracker) step(t float64, p geo.Point) (d geo.Vec, dt float64, ok bool) {
	prevN, prevT, prevP := m.n, m.lastT, m.lastP
	m.lastT, m.lastP = t, p
	m.n++
	if prevN == 0 || t <= prevT {
		return geo.Vec{}, 0, false
	}
	return p.Sub(prevP), t - prevT, true
}

// BrownLE is the paper's Location Estimator: Brown's double exponential
// smoothing over the node's observed speed and direction, with the
// direction smoothed on the unit circle (cos/sin components) to avoid
// wrap-around artefacts. Predict projects the smoothed motion forward from
// the last received location with the trigonometric construction of
// section 3.3. The smoothers are held by value, so one node's estimator
// is a single allocation.
type BrownLE struct {
	speed    Brown
	dirCos   Brown
	dirSin   Brown
	tracker  motionTracker
	nSamples int
}

var _ PositionEstimator = (*BrownLE)(nil)

// DefaultSmoothing is the smoothing constant used when the experiments do
// not sweep it explicitly.
const DefaultSmoothing = 0.5

// NewBrownLE returns the paper's double-exponential-smoothing location
// estimator with smoothing constant alpha in (0, 1).
func NewBrownLE(alpha float64) (*BrownLE, error) {
	if err := checkAlpha(alpha); err != nil {
		return nil, err
	}
	b := Brown{alpha: alpha}
	return &BrownLE{speed: b, dirCos: b, dirSin: b}, nil
}

// Observe implements PositionEstimator.
func (e *BrownLE) Observe(t float64, p geo.Point) {
	speed, heading, ok := e.tracker.observe(t, p)
	if !ok {
		return
	}
	e.speed.Observe(speed)
	sin, cos := math.Sincos(heading)
	e.dirCos.Observe(cos)
	e.dirSin.Observe(sin)
	e.nSamples++
}

// Ready implements PositionEstimator. Two motion samples are needed before
// the trend term is meaningful.
func (e *BrownLE) Ready() bool { return e.nSamples >= 2 }

// Reset implements PositionEstimator.
func (e *BrownLE) Reset() {
	b := Brown{alpha: e.speed.alpha}
	*e = BrownLE{speed: b, dirCos: b, dirSin: b}
}

// Predict implements PositionEstimator.
func (e *BrownLE) Predict(t float64) geo.Point {
	if e.tracker.n == 0 {
		return geo.Point{}
	}
	dt := t - e.tracker.lastT
	if dt <= 0 || e.nSamples == 0 {
		return e.tracker.lastP
	}
	// One smoothing step corresponds to one received update; extrapolate
	// the motion at the forecast horizon of a single step, as the paper's
	// broker does every filtered sampling period.
	v := e.speed.Forecast(1)
	if v < 0 {
		v = 0
	}
	heading := math.Atan2(e.dirSin.Forecast(1), e.dirCos.Forecast(1))
	return e.tracker.lastP.Add(geo.FromHeading(geo.NormalizeAngle(heading), v*dt))
}

// SingleLE mirrors BrownLE with single exponential smoothing (no trend
// term); it is the natural ablation of the LE's second smoothing pass.
type SingleLE struct {
	speed    Single
	dirCos   Single
	dirSin   Single
	tracker  motionTracker
	nSamples int
}

var _ PositionEstimator = (*SingleLE)(nil)

// NewSingleLE returns a single-exponential-smoothing location estimator.
func NewSingleLE(alpha float64) (*SingleLE, error) {
	if err := checkAlpha(alpha); err != nil {
		return nil, err
	}
	sm := Single{alpha: alpha}
	return &SingleLE{speed: sm, dirCos: sm, dirSin: sm}, nil
}

// Observe implements PositionEstimator.
func (e *SingleLE) Observe(t float64, p geo.Point) {
	speed, heading, ok := e.tracker.observe(t, p)
	if !ok {
		return
	}
	e.speed.Observe(speed)
	sin, cos := math.Sincos(heading)
	e.dirCos.Observe(cos)
	e.dirSin.Observe(sin)
	e.nSamples++
}

// Ready implements PositionEstimator.
func (e *SingleLE) Ready() bool { return e.nSamples >= 1 }

// Reset implements PositionEstimator.
func (e *SingleLE) Reset() {
	sm := Single{alpha: e.speed.alpha}
	*e = SingleLE{speed: sm, dirCos: sm, dirSin: sm}
}

// Predict implements PositionEstimator.
func (e *SingleLE) Predict(t float64) geo.Point {
	if e.tracker.n == 0 {
		return geo.Point{}
	}
	dt := t - e.tracker.lastT
	if dt <= 0 || e.nSamples == 0 {
		return e.tracker.lastP
	}
	v := e.speed.Level()
	if v < 0 {
		v = 0
	}
	heading := math.Atan2(e.dirSin.Level(), e.dirCos.Level())
	return e.tracker.lastP.Add(geo.FromHeading(geo.NormalizeAngle(heading), v*dt))
}

// DeadReckoning extrapolates along the raw velocity vector between the two
// most recent updates — no smoothing at all.
type DeadReckoning struct {
	tracker motionTracker
	vel     geo.Vec
	hasVel  bool
}

var _ PositionEstimator = (*DeadReckoning)(nil)

// NewDeadReckoning returns a dead-reckoning estimator.
func NewDeadReckoning() *DeadReckoning { return &DeadReckoning{} }

// Observe implements PositionEstimator.
func (e *DeadReckoning) Observe(t float64, p geo.Point) {
	speed, heading, ok := e.tracker.observe(t, p)
	if !ok {
		return
	}
	e.vel = geo.FromHeading(heading, speed)
	e.hasVel = true
}

// Ready implements PositionEstimator.
func (e *DeadReckoning) Ready() bool { return e.hasVel }

// Reset implements PositionEstimator.
func (e *DeadReckoning) Reset() { *e = DeadReckoning{} }

// Predict implements PositionEstimator.
func (e *DeadReckoning) Predict(t float64) geo.Point {
	if e.tracker.n == 0 {
		return geo.Point{}
	}
	dt := t - e.tracker.lastT
	if dt <= 0 || !e.hasVel {
		return e.tracker.lastP
	}
	return e.tracker.lastP.Add(e.vel.Scale(dt))
}
