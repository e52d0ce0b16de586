package estimate

import (
	"fmt"
	"math"

	"github.com/mobilegrid/adf/internal/geo"
)

// GapAwareLE is a location estimator built for distance-filtered update
// streams. Reproducing the paper exposed a selection effect that plain
// trajectory extrapolation (BrownLE) cannot handle: under per-step
// distance filtering, an update is *withheld exactly when the node is
// moving slowly*, so during silence the node's expected speed is the
// below-threshold conditional speed — systematically lower than the speed
// observed across received updates. Extrapolating at the smoothed observed
// speed therefore overshoots and can make the location error worse than no
// estimation at all.
//
// GapAwareLE learns the silence-conditional drift directly. Each received
// update after a gap of g sampling periods contributes one (g, net
// displacement) observation; the expected net displacement is linear in g
// with slope equal to the mean silent-period drift. A recursive
// exponentially weighted least-squares fit of that line yields the slope,
// and during silence of duration d the estimator predicts
//
//	lastReported + slope · d · smoothedHeading
//
// with the heading smoothed on the unit circle exactly as BrownLE does.
// For random movers the net displacement grows sub-linearly in g, the
// fitted slope shrinks, and the prediction correctly stays near the last
// report.
type GapAwareLE struct {
	cfg GapAwareConfig
	// Heading uses trendless single smoothing: a heading trend term only
	// amplifies the overshoot at direction reversals. The smoothers are
	// held by value, so one node's estimator is a single allocation.
	dirCos   Single
	dirSin   Single
	tracker  motionTracker
	nSamples int

	// Exponentially weighted sums of the (gap, net) regression.
	sw, sx, sy, sxx, sxy float64

	// The prediction's direction and drift rate change only in Observe,
	// but a broker predicts on every silent tick. Predict derives cos and
	// sin of the smoothed heading and the slope once after each Observe
	// and keeps them until the next; the same factors times the same
	// length give bit for bit the same point.
	predCos, predSin, predSlope float64
	predValid                   bool
}

var _ PositionEstimator = (*GapAwareLE)(nil)

// GapAwareConfig parameterises GapAwareLE.
type GapAwareConfig struct {
	// HeadingAlpha is the smoothing constant of the circular heading
	// smoother, in (0, 1).
	HeadingAlpha float64
	// Lambda is the forgetting factor of the drift regression, in (0, 1].
	// 1 weights the whole history equally.
	Lambda float64
	// MaxHorizon caps the silence duration the estimator will extrapolate
	// over, in seconds. Zero means no cap.
	MaxHorizon float64
}

// DefaultGapAwareConfig returns the configuration used by the experiments.
func DefaultGapAwareConfig() GapAwareConfig {
	return GapAwareConfig{
		HeadingAlpha: 0.5,
		Lambda:       0.98,
		MaxHorizon:   120,
	}
}

// Validate reports configuration errors.
func (c GapAwareConfig) Validate() error {
	if c.HeadingAlpha <= 0 || c.HeadingAlpha >= 1 {
		return fmt.Errorf("estimate: HeadingAlpha %v outside (0, 1)", c.HeadingAlpha)
	}
	if c.Lambda <= 0 || c.Lambda > 1 {
		return fmt.Errorf("estimate: Lambda %v outside (0, 1]", c.Lambda)
	}
	if c.MaxHorizon < 0 {
		return fmt.Errorf("estimate: MaxHorizon %v negative", c.MaxHorizon)
	}
	return nil
}

// NewGapAwareLE returns a gap-aware location estimator.
func NewGapAwareLE(cfg GapAwareConfig) (*GapAwareLE, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sm := Single{alpha: cfg.HeadingAlpha}
	return &GapAwareLE{cfg: cfg, dirCos: sm, dirSin: sm}, nil
}

// Observe implements PositionEstimator.
func (e *GapAwareLE) Observe(t float64, p geo.Point) {
	e.predValid = false
	d, gap, ok := e.tracker.step(t, p)
	if !ok {
		return
	}
	// The net displacement is |d|: Point.Dist takes the same Hypot of
	// the same difference.
	net := d.Len()
	heading := d.Heading()

	// Heading on the unit circle.
	e.dirCos.Observe(math.Cos(heading))
	e.dirSin.Observe(math.Sin(heading))

	// Drift regression update.
	l := e.cfg.Lambda
	e.sw = l*e.sw + 1
	e.sx = l*e.sx + gap
	e.sy = l*e.sy + net
	e.sxx = l*e.sxx + gap*gap
	e.sxy = l*e.sxy + gap*net
	e.nSamples++
}

// Ready implements PositionEstimator.
func (e *GapAwareLE) Ready() bool { return e.nSamples >= 2 }

// Reset implements PositionEstimator.
func (e *GapAwareLE) Reset() {
	sm := Single{alpha: e.cfg.HeadingAlpha}
	*e = GapAwareLE{cfg: e.cfg, dirCos: sm, dirSin: sm}
}

// Slope returns the fitted silent-period drift in metres per second.
func (e *GapAwareLE) Slope() float64 {
	den := e.sw*e.sxx - e.sx*e.sx
	var slope float64
	if math.Abs(den) > 1e-12 {
		slope = (e.sw*e.sxy - e.sx*e.sy) / den
	} else if e.sx > 0 {
		// All gaps identical: fall back to the ratio estimator.
		slope = e.sy / e.sx
	}
	if slope < 0 {
		slope = 0
	}
	return slope
}

// Predict implements PositionEstimator.
func (e *GapAwareLE) Predict(t float64) geo.Point {
	if e.tracker.n == 0 {
		return geo.Point{}
	}
	dt := t - e.tracker.lastT
	if dt <= 0 || e.nSamples == 0 {
		return e.tracker.lastP
	}
	if e.cfg.MaxHorizon > 0 && dt > e.cfg.MaxHorizon {
		dt = e.cfg.MaxHorizon
	}
	if !e.predValid {
		h := geo.NormalizeAngle(math.Atan2(e.dirSin.Level(), e.dirCos.Level()))
		e.predCos, e.predSin = math.Cos(h), math.Sin(h)
		e.predSlope = e.Slope()
		e.predValid = true
	}
	l := e.predSlope * dt
	return e.tracker.lastP.Add(geo.Vec{DX: e.predCos * l, DY: e.predSin * l})
}
