package core

import (
	"fmt"
	"testing"

	"github.com/mobilegrid/adf/internal/filter"
	"github.com/mobilegrid/adf/internal/geo"
	"github.com/mobilegrid/adf/internal/sanitize"
	"github.com/mobilegrid/adf/internal/sim"
)

// viewTick is one sampling round of a scripted LU stream: the nodes that
// leave the grid at its start, then the round's LUs in visiting order.
type viewTick struct {
	forget []int
	lus    []filter.LU
}

// viewScript scripts a churning, mixed-mobility LU stream: stop nodes,
// straight movers, random walkers and movers that change velocity every
// 40 ticks, with nodes leaving and rejoining. Every ninth tick one
// node's LU is offered twice in a row at the same time.
func viewScript(seed int64, nodes, ticks int) []viewTick {
	rng := sim.NewRNG(seed)
	pos := make([]geo.Point, nodes)
	vel := make([]geo.Vec, nodes)
	away := make([]bool, nodes)
	for i := range vel {
		if i%5 != 0 {
			vel[i] = geo.FromHeading(rng.Heading(), rng.Uniform(0.3, 9))
		}
	}
	script := make([]viewTick, 0, ticks)
	for tick := 1; tick <= ticks; tick++ {
		var vt viewTick
		for i := range away {
			switch {
			case away[i]:
				away[i] = !rng.Bool(0.25)
			case rng.Bool(0.02):
				away[i] = true
				vt.forget = append(vt.forget, i)
			}
		}
		for i := range pos {
			switch {
			case i%5 == 1:
				vel[i] = geo.FromHeading(rng.Heading(), rng.Uniform(0.5, 1.5))
			case i%5 == 2 && tick%40 == 0:
				vel[i] = geo.FromHeading(rng.Heading(), rng.Uniform(0.3, 9))
			}
			pos[i] = pos[i].Add(vel[i])
			if away[i] {
				continue
			}
			lu := filter.LU{Node: i, Time: float64(tick), Pos: pos[i]}
			vt.lus = append(vt.lus, lu)
			if tick%9 == 4 && i == tick%nodes {
				vt.lus = append(vt.lus, lu)
			}
		}
		script = append(script, vt)
	}
	return script
}

// sameDecision reports bit identity of two filter decisions.
func sameDecision(a, b filter.Decision) bool {
	return a.Transmit == b.Transmit && geo.SameBits(a.Distance, b.Distance) &&
		geo.SameBits(a.Threshold, b.Threshold)
}

// adfDigest folds a filter's clustering digest.
func adfDigest(f filter.Filter) uint64 {
	d := sanitize.NewDigest()
	f.(*ADF).DigestState(&d)
	return d.Sum()
}

// TestFrontViewsMatchLoneADFs: k factor views over one front must
// decide bit for bit like k lone ADFs fed the same LU stream, under both
// distance semantics, with churn (a departure forgotten through every
// view, or through one view only) and rejoins, with a same-time LU
// offered twice in a row through each view, and in both offer orders:
// node-major (every view offers one LU before the next LU) and
// lane-major (each view offers the whole round before the next view).
// Lane-major is the order the pipeline's lanes use; it is the order in
// which a later view would see cluster means already moved by other
// nodes' updates if it did not read the front's cached mean.
func TestFrontViewsMatchLoneADFs(t *testing.T) {
	factors := []float64{0.75, 1.0, 1.25}
	script := viewScript(29, 36, 160)
	for _, sem := range []filter.Semantics{filter.PerStep, filter.Anchored} {
		for _, order := range []string{"node-major", "lane-major"} {
			for _, forgetVia := range []string{"all", "one"} {
				t.Run(fmt.Sprintf("%v/%s/forget-%s", sem, order, forgetVia), func(t *testing.T) {
					cfg := DefaultConfig()
					cfg.Semantics = sem
					cfg.ReclusterInterval = 5
					lone := make([]filter.Filter, len(factors))
					for i, f := range factors {
						c := cfg
						c.DTHFactor = f
						lone[i] = mustADF(t, c)
					}
					cfg.DTHFactor = factors[0]
					base := mustADF(t, cfg)
					views := []filter.Filter{base}
					for _, f := range factors[1:] {
						views = append(views, base.At(f))
					}

					want := make([][]filter.Decision, len(lone))
					for i, f := range lone {
						for _, vt := range script {
							for _, id := range vt.forget {
								f.Forget(id)
							}
							for _, lu := range vt.lus {
								want[i] = append(want[i], f.Offer(lu))
							}
						}
					}

					got := make([][]filter.Decision, len(views))
					for _, vt := range script {
						for _, id := range vt.forget {
							if forgetVia == "one" {
								views[id%len(views)].Forget(id)
								continue
							}
							for _, v := range views {
								v.Forget(id)
							}
							views[0].Forget(id) // idempotent
						}
						if order == "node-major" {
							for _, lu := range vt.lus {
								for i, v := range views {
									got[i] = append(got[i], v.Offer(lu))
								}
							}
							continue
						}
						for i, v := range views {
							for _, lu := range vt.lus {
								got[i] = append(got[i], v.Offer(lu))
							}
						}
					}

					filtered := 0
					for i := range views {
						if len(got[i]) != len(want[i]) {
							t.Fatalf("view %d: %d decisions, want %d", i, len(got[i]), len(want[i]))
						}
						for k := range want[i] {
							if !sameDecision(got[i][k], want[i][k]) {
								t.Fatalf("view %d (%.2fav) decision %d = %+v, lone ADF %+v",
									i, factors[i], k, got[i][k], want[i][k])
							}
							if !want[i][k].Transmit {
								filtered++
							}
						}
						if g, w := adfDigest(views[i]), adfDigest(lone[i]); g != w {
							t.Errorf("view %d: clustering digest %#x, lone ADF %#x", i, g, w)
						}
						gv, lv := views[i].(*ADF), lone[i].(*ADF)
						if gv.NodeCount() != lv.NodeCount() || gv.ClusterCount() != lv.ClusterCount() {
							t.Errorf("view %d: %d nodes, %d clusters; lone ADF %d, %d", i,
								gv.NodeCount(), gv.ClusterCount(), lv.NodeCount(), lv.ClusterCount())
						}
						for id := 0; id < 36; id++ {
							if gv.PatternOf(id) != lv.PatternOf(id) {
								t.Errorf("view %d node %d: pattern %v, lone ADF %v", i, id, gv.PatternOf(id), lv.PatternOf(id))
							}
						}
					}
					if filtered == 0 {
						t.Error("no LU was filtered; the stream does not exercise the thresholds")
					}
				})
			}
		}
	}
}

// TestFrontViewName: a view names itself by its own factor and shares
// the front's clustering.
func TestFrontViewName(t *testing.T) {
	a := mustADF(t, DefaultConfig())
	v := a.At(1.25).(*ADF)
	if v.Name() != "adf(1.25av)" || v.Config().DTHFactor != 1.25 || a.Config().DTHFactor != 1 {
		t.Errorf("view %q factor %v, base factor %v", v.Name(), v.Config().DTHFactor, a.Config().DTHFactor)
	}
	offerLinear(a, 1, 50, 1.0)
	if v.ClusterCount() != 1 || v.NodeCount() != 1 {
		t.Errorf("view sees %d clusters, %d nodes; want the front's 1 and 1", v.ClusterCount(), v.NodeCount())
	}
	defer func() {
		if recover() == nil {
			t.Error("At(0) did not panic")
		}
	}()
	a.At(0)
}

// TestADFRejoinIsFirstSight: a node forgotten through any one view
// rejoins as a first sight in every view — transmitted, at distance 0 —
// whatever anchor a view held before the departure.
func TestADFRejoinIsFirstSight(t *testing.T) {
	a := mustADF(t, DefaultConfig())
	views := []filter.Filter{a, a.At(1.25)}
	for _, forgetVia := range views {
		for tick := 0; tick < 30; tick++ {
			lu := filter.LU{Node: 3, Time: float64(tick), Pos: geo.Point{X: float64(tick)}}
			for _, v := range views {
				v.Offer(lu)
			}
		}
		forgetVia.Forget(3)
		lu := filter.LU{Node: 3, Time: 40, Pos: geo.Point{X: 500, Y: 7}}
		for i, v := range views {
			if d := v.Offer(lu); !d.Transmit || d.Distance != 0 {
				t.Errorf("view %d: rejoin decision %+v, want a first-sight transmit at distance 0", i, d)
			}
		}
		forgetVia.Forget(3)
	}
}
