package estimate

import (
	"github.com/mobilegrid/adf/internal/geo"
)

// AR1LE forecasts each coordinate's per-second increment with an online
// first-order autoregressive model fitted by exponentially weighted least
// squares. It stands in for the paper's ARIMA comparator: section 3.3
// dismisses ARIMA because it "needs a massive dataset" and is "hard to
// update"; AR(1) is the smallest member of that family and lets the
// estimator shoot-out quantify the claim.
type AR1LE struct {
	x, y    ar1
	tracker motionTracker
	samples int
}

var _ PositionEstimator = (*AR1LE)(nil)

// NewAR1LE returns an AR(1)-increment location estimator. lambda in (0, 1]
// is the forgetting factor of the recursive fit; 1 means ordinary least
// squares over the whole history.
func NewAR1LE(lambda float64) *AR1LE {
	if lambda <= 0 || lambda > 1 {
		lambda = 1
	}
	return &AR1LE{x: ar1{lambda: lambda}, y: ar1{lambda: lambda}}
}

// ar1 is an online AR(1) fit d_t = phi * d_{t-1} + e over a scalar
// increment series, via exponentially weighted sums.
type ar1 struct {
	lambda   float64
	sumXY    float64 // Σ λ^k d_{t-1} d_t
	sumXX    float64 // Σ λ^k d_{t-1}²
	prev     float64
	havePrev bool
	last     float64
}

func (a *ar1) observe(d float64) {
	if a.havePrev {
		a.sumXY = a.lambda*a.sumXY + a.prev*d
		a.sumXX = a.lambda*a.sumXX + a.prev*a.prev
	}
	a.prev = d
	a.havePrev = true
	a.last = d
}

func (a *ar1) forecast() float64 {
	if a.sumXX == 0 {
		return a.last
	}
	phi := a.sumXY / a.sumXX
	// Keep the model stationary; runaway |phi|>1 explodes the forecast as
	// the horizon grows.
	phi = geo.Clamp(phi, -1, 1)
	return phi * a.last
}

// Observe implements PositionEstimator.
func (e *AR1LE) Observe(t float64, p geo.Point) {
	d, dt, ok := e.tracker.step(t, p)
	if !ok {
		return
	}
	// Normalise to per-second increments so irregular update spacing does
	// not bias the fit.
	e.x.observe(d.DX / dt)
	e.y.observe(d.DY / dt)
	e.samples++
}

// Ready implements PositionEstimator.
func (e *AR1LE) Ready() bool { return e.samples >= 2 }

// Reset implements PositionEstimator.
func (e *AR1LE) Reset() {
	l := e.x.lambda
	*e = AR1LE{x: ar1{lambda: l}, y: ar1{lambda: l}}
}

// Predict implements PositionEstimator.
func (e *AR1LE) Predict(t float64) geo.Point {
	if e.tracker.n == 0 {
		return geo.Point{}
	}
	dt := t - e.tracker.lastT
	if dt <= 0 || e.samples == 0 {
		return e.tracker.lastP
	}
	return e.tracker.lastP.Add(geo.Vec{
		DX: e.x.forecast() * dt,
		DY: e.y.forecast() * dt,
	})
}
