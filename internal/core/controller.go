package core

import (
	"fmt"

	"math"

	"github.com/mobilegrid/adf/internal/filter"
	"github.com/mobilegrid/adf/internal/geo"
)

// SetDTHFactor changes the ADF's threshold scaling at run time. The new
// factor applies from the next Offer; per-node state and clustering are
// unaffected. It returns an error for a factor outside (0,
// MaxDTHFactor].
func (a *ADF) SetDTHFactor(factor float64) error {
	if err := validFactor(factor); err != nil {
		return err
	}
	a.cfg.DTHFactor = factor
	return nil
}

// ControllerConfig tunes the traffic-budget controller.
type ControllerConfig struct {
	// TargetRate is the desired transmitted-LU rate in LUs per second.
	TargetRate float64
	// Interval is the adjustment period in virtual seconds.
	Interval float64
	// Gain is the exponent of the log-space controller: each adjustment
	// multiplies the factor by (rate/target)^Gain. Values well below 1
	// keep the loop stable on the strongly non-linear filtering plant.
	Gain float64
	// MinFactor and MaxFactor clamp the controlled DTH factor; MaxFactor
	// is at most MaxDTHFactor.
	MinFactor, MaxFactor float64
}

// DefaultControllerConfig returns a controller that adjusts every 10
// virtual seconds with moderate gain across the paper's factor range and
// beyond.
func DefaultControllerConfig(targetRate float64) ControllerConfig {
	return ControllerConfig{
		TargetRate: targetRate,
		Interval:   10,
		Gain:       0.4,
		MinFactor:  0.1,
		MaxFactor:  8,
	}
}

// Validate reports configuration errors.
func (c ControllerConfig) Validate() error {
	if c.TargetRate <= 0 {
		return fmt.Errorf("core: TargetRate must be positive, got %v", c.TargetRate)
	}
	if c.Interval <= 0 {
		return fmt.Errorf("core: Interval must be positive, got %v", c.Interval)
	}
	if c.Gain <= 0 {
		return fmt.Errorf("core: Gain must be positive, got %v", c.Gain)
	}
	if c.MinFactor <= 0 || c.MaxFactor < c.MinFactor || c.MaxFactor > MaxDTHFactor {
		return fmt.Errorf("core: invalid factor range [%v, %v]", c.MinFactor, c.MaxFactor)
	}
	return nil
}

// ControlledADF wraps an ADF with a feedback controller that keeps the
// transmitted-LU rate near a target budget by tuning the DTH factor — the
// natural extension of the paper's fixed 0.75/1.0/1.25·av sweep for
// deployments with a known uplink budget. A higher observed rate raises
// the factor (filter harder); a lower rate lowers it (report more).
type ControlledADF struct {
	adf *ADF
	cfg ControllerConfig

	windowStart float64
	started     bool
	sent        int
	factor      float64
}

var _ filter.Filter = (*ControlledADF)(nil)

// NewControlledADF wraps adf with a rate controller. The controller
// starts from the ADF's configured DTH factor.
func NewControlledADF(adf *ADF, cfg ControllerConfig) (*ControlledADF, error) {
	if adf == nil {
		return nil, fmt.Errorf("core: nil ADF")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &ControlledADF{
		adf:    adf,
		cfg:    cfg,
		factor: adf.Config().DTHFactor,
	}, nil
}

// Name implements filter.Filter.
func (c *ControlledADF) Name() string {
	return fmt.Sprintf("adf-budget(%.0f lu/s)", c.cfg.TargetRate)
}

// Factor returns the controller's current DTH factor.
func (c *ControlledADF) Factor() float64 { return c.factor }

// Offer implements filter.Filter: it delegates to the wrapped ADF and
// adjusts the DTH factor at each interval boundary.
func (c *ControlledADF) Offer(lu filter.LU) filter.Decision {
	if !c.started {
		c.started = true
		c.windowStart = lu.Time
	}
	if lu.Time-c.windowStart >= c.cfg.Interval {
		c.adjust(lu.Time)
	}
	d := c.adf.Offer(lu)
	if d.Transmit {
		c.sent++
	}
	return d
}

// adjust applies one log-space controller step: the factor is multiplied
// by (rate/target)^Gain, with the measured ratio clamped so a silent or
// saturated window cannot slam the factor across its whole range.
func (c *ControlledADF) adjust(now float64) {
	elapsed := now - c.windowStart
	rate := float64(c.sent) / elapsed
	ratio := geo.Clamp(rate/c.cfg.TargetRate, 0.25, 4)
	c.factor *= math.Pow(ratio, c.cfg.Gain)
	c.factor = geo.Clamp(c.factor, c.cfg.MinFactor, c.cfg.MaxFactor)
	// The factor was clamped into a valid positive range.
	if err := c.adf.SetDTHFactor(c.factor); err != nil {
		panic(fmt.Sprintf("core: controller produced invalid factor: %v", err))
	}
	c.windowStart = now
	c.sent = 0
}

// Forget implements filter.Filter.
func (c *ControlledADF) Forget(node int) { c.adf.Forget(node) }

// ADF returns the wrapped filter for inspection.
func (c *ControlledADF) ADF() *ADF { return c.adf }
