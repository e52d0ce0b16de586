// Package core implements the paper's contribution: the mobility-pattern
// classifier of Figure 2 and the Adaptive Distance Filter (ADF) that
// clusters mobile nodes by motion and filters their location updates with
// per-cluster distance thresholds.
package core

import (
	"fmt"
	"math"

	"github.com/mobilegrid/adf/internal/cluster"
	"github.com/mobilegrid/adf/internal/geo"
)

// MobilityPattern is the three-way classification of section 3.1.
type MobilityPattern int

const (
	// PatternUnknown means the classifier has not seen enough samples.
	PatternUnknown MobilityPattern = iota
	// PatternStop is the Stop State (SS): no movement.
	PatternStop
	// PatternRandom is the Random Movement State (RMS).
	PatternRandom
	// PatternLinear is the Linear Movement State (LMS): movement towards a
	// destination.
	PatternLinear
)

// String implements fmt.Stringer.
func (p MobilityPattern) String() string {
	switch p {
	case PatternStop:
		return "SS"
	case PatternRandom:
		return "RMS"
	case PatternLinear:
		return "LMS"
	default:
		return "unknown"
	}
}

// ClassifierConfig tunes the Figure-2 algorithm. The paper's pseudo-code
// leaves "Vmn and Dmn are constant" unquantified; we operationalise it
// with stability bounds over a sliding sample window.
type ClassifierConfig struct {
	// WindowSize is the number of recent position samples considered.
	WindowSize int
	// WalkSpeed is V_walk, the maximum walking speed in m/s. Faster nodes
	// are running or in a vehicle and are classified LMS outright.
	WalkSpeed float64
	// StopSpeed is the mean speed below which a node is in the Stop State.
	StopSpeed float64
	// SpeedStability is the maximum standard deviation of per-step speed
	// (m/s) for the speed to count as "constant".
	SpeedStability float64
	// HeadingStability is the maximum circular variance (0..1) of per-step
	// headings for the direction to count as "constant".
	HeadingStability float64
}

// DefaultClassifierConfig returns the thresholds used by the experiments.
func DefaultClassifierConfig() ClassifierConfig {
	return ClassifierConfig{
		WindowSize:       8,
		WalkSpeed:        2.0,
		StopSpeed:        0.05,
		SpeedStability:   0.5,
		HeadingStability: 0.2,
	}
}

// Validate reports configuration errors.
func (c ClassifierConfig) Validate() error {
	if c.WindowSize < 2 {
		return fmt.Errorf("core: WindowSize must be at least 2, got %d", c.WindowSize)
	}
	if c.WalkSpeed <= 0 {
		return fmt.Errorf("core: WalkSpeed must be positive, got %v", c.WalkSpeed)
	}
	if c.StopSpeed < 0 || c.StopSpeed >= c.WalkSpeed {
		return fmt.Errorf("core: StopSpeed %v outside [0, WalkSpeed)", c.StopSpeed)
	}
	if c.SpeedStability < 0 {
		return fmt.Errorf("core: SpeedStability must be non-negative, got %v", c.SpeedStability)
	}
	if c.HeadingStability < 0 || c.HeadingStability > 1 {
		return fmt.Errorf("core: HeadingStability %v outside [0, 1]", c.HeadingStability)
	}
	return nil
}

// Classifier implements the Figure-2 mobility-pattern classification for
// one mobile node from its raw position samples.
//
// Observe runs once per node per sampling period, so the window is kept
// compact and incremental: the newest sample is held inline, and the
// window's steps — each step's speed and the cos/sin of its heading,
// derived exactly once when the step completes — sit in one ring of
// WindowSize-1 slots allocated at construction. A full window overwrites
// its oldest step in place, so a steady-state Observe allocates nothing,
// moves no memory and repeats no trigonometry. Every statistic walks the
// ring oldest to newest, the order and arithmetic of geo.Mean,
// geo.Variance and a fresh circular-mean pass, so results are bit for
// bit those of a plain slice window.
type Classifier struct {
	// cfg is shared, not copied: an ADF points every node's classifier
	// at its own validated config.
	cfg *ClassifierConfig
	// steps is the ring of the window's steps; head indexes the oldest.
	steps []step
	// lastT and lastP are the newest sample.
	lastT float64
	lastP geo.Point
	head  int32
	// n is the number of buffered samples (at most WindowSize); the
	// window holds n-1 steps.
	n int32
	// moving counts the window's steps faster than StopSpeed: only those
	// contribute a heading.
	moving int32
}

// step is one completed per-sample motion: its speed and, for a moving
// step, the cos/sin of its heading.
type step struct {
	speed, cos, sin float64
}

// NewClassifier returns a classifier for one node.
func NewClassifier(cfg ClassifierConfig) (*Classifier, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// One allocation holds the classifier and the config it points at.
	owned := &struct {
		Classifier
		cfg ClassifierConfig
	}{cfg: cfg}
	owned.init(&owned.cfg)
	return &owned.Classifier, nil
}

// init readies a zero Classifier to share the validated cfg, allocating
// its step ring once.
func (c *Classifier) init(cfg *ClassifierConfig) {
	c.cfg = cfg
	c.steps = make([]step, cfg.WindowSize-1)
}

// reset empties the window, keeping the ring for reuse.
func (c *Classifier) reset() {
	c.head, c.n, c.moving = 0, 0, 0
}

// Observe feeds the node's next position sample. Samples with
// non-advancing timestamps are ignored.
func (c *Classifier) Observe(t float64, p geo.Point) {
	if c.n > 0 {
		if t <= c.lastT {
			return
		}
		// Derive the newly completed step exactly once.
		dt := t - c.lastT
		d := p.Sub(c.lastP)
		s := step{speed: d.Len() / dt}
		if s.speed > c.cfg.StopSpeed {
			h := d.Heading()
			s.cos, s.sin = math.Cos(h), math.Sin(h)
			c.moving++
		}
		if int(c.n) == c.cfg.WindowSize {
			// Window full: the oldest step leaves, and its slot takes
			// the new one.
			old := &c.steps[c.head]
			if old.speed > c.cfg.StopSpeed {
				c.moving--
			}
			*old = s
			if c.head++; int(c.head) == len(c.steps) {
				c.head = 0
			}
		} else {
			// Warm-up: head is still 0, so step k sits in slot k.
			c.steps[c.n-1] = s
			c.n++
		}
	} else {
		c.n = 1
	}
	c.lastT, c.lastP = t, p
}

// window returns the window's steps oldest to newest as the ring's two
// contiguous runs.
func (c *Classifier) window() (older, newer []step) {
	k := int(c.n) - 1
	if k <= 0 {
		return nil, nil
	}
	h := int(c.head)
	if h+k <= len(c.steps) {
		return c.steps[h : h+k], nil
	}
	return c.steps[h:], c.steps[:h+k-len(c.steps)]
}

// Ready reports whether enough samples have arrived to classify.
func (c *Classifier) Ready() bool {
	return int(c.n) >= c.cfg.WindowSize
}

// Samples returns the number of buffered samples (at most WindowSize).
func (c *Classifier) Samples() int { return int(c.n) }

// MeanSpeed returns the node's mean speed over the window, V_mn in the
// paper's notation: geo.Mean over the steps' speeds.
func (c *Classifier) MeanSpeed() float64 {
	older, newer := c.window()
	k := len(older) + len(newer)
	if k == 0 {
		return 0
	}
	var s float64
	for i := range older {
		s += older[i].speed
	}
	for i := range newer {
		s += newer[i].speed
	}
	return s / float64(k)
}

// speedStdDev returns geo.StdDev over the steps' speeds, given their
// mean m as MeanSpeed computes it (the caller has it already, and the
// same sum in the same order is the same mean).
func (c *Classifier) speedStdDev(m float64) float64 {
	older, newer := c.window()
	k := len(older) + len(newer)
	if k < 2 {
		return 0
	}
	var s float64
	for i := range older {
		d := older[i].speed - m
		s += d * d
	}
	for i := range newer {
		d := newer[i].speed - m
		s += d * d
	}
	return math.Sqrt(s / float64(k))
}

// headingSums returns Σcos and Σsin over the window's moving-step
// headings, oldest to newest — the same values and summation order a
// fresh geo.CircularMean pass would use.
func (c *Classifier) headingSums() (sx, sy float64) {
	older, newer := c.window()
	stop := c.cfg.StopSpeed
	for i := range older {
		if s := &older[i]; s.speed > stop {
			sx += s.cos
			sy += s.sin
		}
	}
	for i := range newer {
		if s := &newer[i]; s.speed > stop {
			sx += s.cos
			sy += s.sin
		}
	}
	return sx, sy
}

// MeanHeading returns the circular mean heading over the window's moving
// steps, D_mn in the paper's notation.
func (c *Classifier) MeanHeading() float64 {
	sx, sy := c.headingSums()
	return geo.CircularMeanFromSums(sx, sy, int(c.moving))
}

// Feature returns the clustering feature derived from the window.
func (c *Classifier) Feature() cluster.Feature {
	return cluster.Feature{Speed: c.MeanSpeed(), Heading: c.MeanHeading()}
}

// Pattern runs the Figure-2 classification:
//
//	if V_mn == 0                         → Stop
//	else if V_mn > V_walk                → Linear (running or in a vehicle)
//	else if V_mn and D_mn are constant   → Linear (walking to a destination)
//	else                                 → Random
//
// It returns PatternUnknown until the window is full.
func (c *Classifier) Pattern() MobilityPattern {
	if !c.Ready() {
		return PatternUnknown
	}
	v := c.MeanSpeed()
	switch {
	case v <= c.cfg.StopSpeed:
		return PatternStop
	case v > c.cfg.WalkSpeed:
		return PatternLinear
	default:
		speedStable := c.speedStdDev(v) <= c.cfg.SpeedStability
		sx, sy := c.headingSums()
		headingStable := geo.CircularVarianceFromSums(sx, sy, int(c.moving)) <= c.cfg.HeadingStability
		if speedStable && headingStable {
			return PatternLinear
		}
		return PatternRandom
	}
}
