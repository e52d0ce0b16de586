package estimate

import (
	"math"
	"testing"

	"github.com/mobilegrid/adf/internal/geo"
	"github.com/mobilegrid/adf/internal/sim"
)

// refGapAware is the plain statement of GapAwareLE: every Observe derives
// speed, heading and displacement afresh, and every Predict recomputes
// the heading angle, its cos and sin and the regression slope. It is the
// oracle GapAwareLE must match bit for bit.
type refGapAware struct {
	cfg                  GapAwareConfig
	dirCos, dirSin       Single
	n                    int
	lastT                float64
	lastP                geo.Point
	nSamples             int
	sw, sx, sy, sxx, sxy float64
}

func (r *refGapAware) observe(t float64, p geo.Point) {
	prevN, prevT, prevP := r.n, r.lastT, r.lastP
	r.lastT, r.lastP = t, p
	r.n++
	if prevN == 0 || t <= prevT {
		return
	}
	heading := p.Sub(prevP).Heading()
	gap := t - prevT
	net := p.Dist(prevP)
	r.dirCos.Observe(math.Cos(heading))
	r.dirSin.Observe(math.Sin(heading))
	l := r.cfg.Lambda
	r.sw = l*r.sw + 1
	r.sx = l*r.sx + gap
	r.sy = l*r.sy + net
	r.sxx = l*r.sxx + gap*gap
	r.sxy = l*r.sxy + gap*net
	r.nSamples++
}

func (r *refGapAware) slope() float64 {
	den := r.sw*r.sxx - r.sx*r.sx
	var slope float64
	if math.Abs(den) > 1e-12 {
		slope = (r.sw*r.sxy - r.sx*r.sy) / den
	} else if r.sx > 0 {
		slope = r.sy / r.sx
	}
	if slope < 0 {
		slope = 0
	}
	return slope
}

func (r *refGapAware) predict(t float64) geo.Point {
	if r.n == 0 {
		return geo.Point{}
	}
	dt := t - r.lastT
	if dt <= 0 || r.nSamples == 0 {
		return r.lastP
	}
	if r.cfg.MaxHorizon > 0 && dt > r.cfg.MaxHorizon {
		dt = r.cfg.MaxHorizon
	}
	heading := math.Atan2(r.dirSin.Level(), r.dirCos.Level())
	return r.lastP.Add(geo.FromHeading(geo.NormalizeAngle(heading), r.slope()*dt))
}

// TestGapAwareMatchesReference pins GapAwareLE's Observe and Predict to
// the recompute-everything reference bit for bit over seeded
// receive/miss streams: runs of silent ticks (several Predicts between
// Observes), gaps longer than MaxHorizon, repeated and backwards
// timestamps, zero displacement, and Predicts at, before and after the
// last report.
func TestGapAwareMatchesReference(t *testing.T) {
	for _, horizon := range []float64{0, 6, 120} {
		for seed := int64(1); seed <= 6; seed++ {
			cfg := DefaultGapAwareConfig()
			cfg.MaxHorizon = horizon
			e := mustGapAware(t, cfg)
			ref := &refGapAware{cfg: cfg, dirCos: Single{alpha: cfg.HeadingAlpha}, dirSin: Single{alpha: cfg.HeadingAlpha}}
			rng := sim.NewRNG(seed)
			now, p, heading := 0.0, geo.Point{X: 3, Y: -2}, rng.Heading()
			check := func(i int, at float64) {
				got, want := e.Predict(at), ref.predict(at)
				if math.Float64bits(got.X) != math.Float64bits(want.X) ||
					math.Float64bits(got.Y) != math.Float64bits(want.Y) {
					t.Fatalf("horizon %v seed %d step %d: Predict(%v) = %v, want %v", horizon, seed, i, at, got, want)
				}
				if e.Ready() != (ref.nSamples >= 2) {
					t.Fatalf("horizon %v seed %d step %d: Ready = %v", horizon, seed, i, e.Ready())
				}
			}
			for i := 0; i < 1500; i++ {
				check(i, now) // before the first report, and at each report
				switch r := rng.Float64(); {
				case r < 0.05: // repeated timestamp
				case r < 0.08: // time running backwards
					now -= rng.Uniform(0, 3)
				case r < 0.12: // a gap past MaxHorizon
					now += rng.Uniform(10, 200)
				default:
					now++
				}
				if rng.Bool(0.1) {
					heading += rng.Normal(0, 2)
				}
				if !rng.Bool(0.15) { // else zero displacement
					p = p.Add(geo.FromHeading(heading, rng.Uniform(0, 4)))
				}
				e.Observe(now, p)
				ref.observe(now, p)
				check(i, now-0.5)
				silent := rng.Intn(6)
				for k := 0; k < silent; k++ {
					check(i, now+float64(k+1))
				}
				check(i, now+rng.Uniform(0, 300))
				now += float64(silent)
			}
		}
	}
}
