package core

import (
	"math"
	"testing"

	"github.com/mobilegrid/adf/internal/cluster"
	"github.com/mobilegrid/adf/internal/geo"
	"github.com/mobilegrid/adf/internal/sim"
)

// refClassifier is the straightforward slice-window statement of the
// Figure-2 classification: every window is a plain slice that drops its
// first element when full, and every statistic is a fresh geo pass. It is
// the oracle Classifier must match bit for bit.
type refClassifier struct {
	cfg      ClassifierConfig
	times    []float64
	points   []geo.Point
	speeds   []float64
	headings []float64
}

func (r *refClassifier) observe(t float64, p geo.Point) {
	n := len(r.times)
	if n > 0 && t <= r.times[n-1] {
		return
	}
	if n == r.cfg.WindowSize {
		if r.speeds[0] > r.cfg.StopSpeed {
			r.headings = r.headings[1:]
		}
		r.speeds = r.speeds[1:]
		r.times = r.times[1:]
		r.points = r.points[1:]
	}
	r.times = append(r.times, t)
	r.points = append(r.points, p)
	if n := len(r.times); n >= 2 {
		dt := r.times[n-1] - r.times[n-2]
		d := r.points[n-1].Sub(r.points[n-2])
		speed := d.Len() / dt
		r.speeds = append(r.speeds, speed)
		if speed > r.cfg.StopSpeed {
			r.headings = append(r.headings, d.Heading())
		}
	}
}

func (r *refClassifier) sums() (sx, sy float64) {
	for _, h := range r.headings {
		sx += math.Cos(h)
	}
	for _, h := range r.headings {
		sy += math.Sin(h)
	}
	return sx, sy
}

func (r *refClassifier) ready() bool { return len(r.times) >= r.cfg.WindowSize }

func (r *refClassifier) meanHeading() float64 {
	sx, sy := r.sums()
	return geo.CircularMeanFromSums(sx, sy, len(r.headings))
}

func (r *refClassifier) pattern() MobilityPattern {
	if !r.ready() {
		return PatternUnknown
	}
	v := geo.Mean(r.speeds)
	switch {
	case v <= r.cfg.StopSpeed:
		return PatternStop
	case v > r.cfg.WalkSpeed:
		return PatternLinear
	default:
		sx, sy := r.sums()
		if geo.StdDev(r.speeds) <= r.cfg.SpeedStability &&
			geo.CircularVarianceFromSums(sx, sy, len(r.headings)) <= r.cfg.HeadingStability {
			return PatternLinear
		}
		return PatternRandom
	}
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestClassifierMatchesReference pins Classifier to the slice-window
// oracle over random streams — non-advancing timestamps, stops, walking,
// driving and erratic segments — at every window size from 2 to 16:
// Ready, Samples, Pattern, Feature, MeanSpeed and MeanHeading must agree
// bit for bit after every sample.
func TestClassifierMatchesReference(t *testing.T) {
	for w := 2; w <= 16; w++ {
		for seed := int64(1); seed <= 4; seed++ {
			cfg := DefaultClassifierConfig()
			cfg.WindowSize = w
			c := mustClassifier(t, cfg)
			ref := &refClassifier{cfg: cfg}
			rng := sim.NewRNG(seed*100 + int64(w))
			now, p, heading := 0.0, geo.Point{}, rng.Heading()
			for i := 0; i < 400; i++ {
				switch r := rng.Float64(); {
				case r < 0.08: // repeated timestamp: must be ignored
				case r < 0.12: // time running backwards: must be ignored
					now -= rng.Uniform(0, 2)
				default:
					now += rng.Uniform(0.2, 2)
				}
				var speed float64
				switch seg := (i / 25) % 4; seg {
				case 0: // stopped, with sub-threshold jitter now and then
					if rng.Bool(0.3) {
						speed = rng.Uniform(0, cfg.StopSpeed)
					}
				case 1: // steady walk
					speed = rng.Uniform(0.9, 1.1)
					heading += rng.Normal(0, 0.05)
				case 2: // vehicle
					speed = rng.Uniform(5, 12)
				default: // erratic
					speed = rng.Uniform(0, 3)
					heading = rng.Heading()
				}
				p = p.Add(geo.FromHeading(heading, speed))
				c.Observe(now, p)
				ref.observe(now, p)

				if c.Ready() != ref.ready() || c.Samples() != len(ref.times) {
					t.Fatalf("w=%d seed=%d step %d: Ready/Samples = %v/%d, want %v/%d",
						w, seed, i, c.Ready(), c.Samples(), ref.ready(), len(ref.times))
				}
				if got, want := c.Pattern(), ref.pattern(); got != want {
					t.Fatalf("w=%d seed=%d step %d: Pattern = %v, want %v", w, seed, i, got, want)
				}
				wantSpeed, wantHeading := geo.Mean(ref.speeds), ref.meanHeading()
				if got := c.MeanSpeed(); !sameFloat(got, wantSpeed) {
					t.Fatalf("w=%d seed=%d step %d: MeanSpeed = %v, want %v", w, seed, i, got, wantSpeed)
				}
				if got := c.MeanHeading(); !sameFloat(got, wantHeading) {
					t.Fatalf("w=%d seed=%d step %d: MeanHeading = %v, want %v", w, seed, i, got, wantHeading)
				}
				want := cluster.Feature{Speed: wantSpeed, Heading: wantHeading}
				if got := c.Feature(); !sameFloat(got.Speed, want.Speed) || !sameFloat(got.Heading, want.Heading) {
					t.Fatalf("w=%d seed=%d step %d: Feature = %+v, want %+v", w, seed, i, got, want)
				}
			}
		}
	}
}
