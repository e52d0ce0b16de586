// Package energy models the mobile nodes' radio energy budget — the
// constraint the paper's introduction motivates the ADF with ("low
// battery capacity"). The model is the standard first-order radio
// model: a fixed cost per transmitted location update plus a baseline
// idle/listen drain per second of connectivity, per node.
//
// The absolute constants default to figures typical of an early-2000s
// WLAN radio; the interesting output is relative — battery life with the
// ADF versus the ideal update stream.
package energy

import (
	"fmt"
	"sort"

	"github.com/mobilegrid/adf/internal/dense"
)

// Model is the per-node radio energy model.
type Model struct {
	// TxJoulesPerLU is the energy to transmit one location update,
	// including the protocol overhead, in joules.
	TxJoulesPerLU float64
	// IdleWatts is the baseline drain while associated to a gateway, in
	// watts (joules per second).
	IdleWatts float64
	// BatteryJoules is the usable battery capacity for grid duty, in
	// joules.
	BatteryJoules float64
}

// DefaultModel returns constants representative of a PDA-class 802.11b
// radio: ≈0.25 J per update (transmit burst plus wake-up), 20 mW idle
// drain, and a 1 kJ slice of battery budgeted to grid participation.
func DefaultModel() Model {
	return Model{
		TxJoulesPerLU: 0.25,
		IdleWatts:     0.020,
		BatteryJoules: 1000,
	}
}

// Validate reports configuration errors.
func (m Model) Validate() error {
	if m.TxJoulesPerLU < 0 {
		return fmt.Errorf("energy: negative TxJoulesPerLU %v", m.TxJoulesPerLU)
	}
	if m.IdleWatts < 0 {
		return fmt.Errorf("energy: negative IdleWatts %v", m.IdleWatts)
	}
	if m.BatteryJoules <= 0 {
		return fmt.Errorf("energy: non-positive BatteryJoules %v", m.BatteryJoules)
	}
	return nil
}

// Spent returns the energy consumed by a node that transmitted lus
// updates over seconds of connected time.
func (m Model) Spent(lus float64, seconds float64) float64 {
	return m.TxJoulesPerLU*lus + m.IdleWatts*seconds
}

// Lifetime returns how long (seconds) the battery lasts at a steady
// update rate of lusPerSecond, or 0 when the model has no drain at all
// (a meaningless configuration).
func (m Model) Lifetime(lusPerSecond float64) float64 {
	drain := m.TxJoulesPerLU*lusPerSecond + m.IdleWatts
	if drain <= 0 {
		return 0
	}
	return m.BatteryJoules / drain
}

// Accountant tracks per-node energy during a simulation run.
type Accountant struct {
	model Model
	spent dense.Map[float64]
}

// NewAccountant returns an accountant for the given model.
func NewAccountant(model Model) (*Accountant, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	return &Accountant{model: model}, nil
}

// Preallocate sizes the ledger for node IDs in [0, n), so the first
// charge of each node grows nothing.
func (a *Accountant) Preallocate(n int) { a.spent.Grow(n) }

// Model returns the accountant's radio model.
func (a *Accountant) Model() Model { return a.model }

// charge adds joules to a node's tally.
func (a *Accountant) charge(node int, joules float64) {
	j, _ := a.spent.Get(node)
	a.spent.Put(node, j+joules)
}

// ChargeTx records one transmitted LU for a node.
func (a *Accountant) ChargeTx(node int) {
	a.charge(node, a.model.TxJoulesPerLU)
}

// ChargeIdle records connected time for a node.
func (a *Accountant) ChargeIdle(node int, seconds float64) {
	a.charge(node, a.model.IdleWatts*seconds)
}

// Spent returns a node's consumed energy in joules.
func (a *Accountant) Spent(node int) float64 {
	j, _ := a.spent.Get(node)
	return j
}

// Total returns the fleet-wide consumed energy in joules.
func (a *Accountant) Total() float64 {
	var sum float64
	a.spent.Range(func(_ int, j float64) bool {
		sum += j
		return true
	})
	return sum
}

// Nodes returns the tracked node IDs in ascending order.
func (a *Accountant) Nodes() []int {
	out := make([]int, 0, a.spent.Len())
	a.spent.Range(func(n int, _ float64) bool {
		out = append(out, n)
		return true
	})
	sort.Ints(out)
	return out
}

// MeanSpent returns the average consumed energy per tracked node.
func (a *Accountant) MeanSpent() float64 {
	if a.spent.Len() == 0 {
		return 0
	}
	return a.Total() / float64(a.spent.Len())
}

// RemainingFraction returns the mean remaining battery fraction across
// tracked nodes, clamped to [0, 1].
func (a *Accountant) RemainingFraction() float64 {
	if a.spent.Len() == 0 {
		return 1
	}
	var sum float64
	a.spent.Range(func(_ int, j float64) bool {
		frac := 1 - j/a.model.BatteryJoules
		if frac < 0 {
			frac = 0
		}
		sum += frac
		return true
	})
	return sum / float64(a.spent.Len())
}
