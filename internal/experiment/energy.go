package experiment

import (
	"fmt"

	"github.com/mobilegrid/adf/internal/metrics"
)

// EnergyRow is one filter configuration's energy summary.
type EnergyRow struct {
	Name   string
	Factor float64
	// TotalLUs is the transmitted LU count over the horizon.
	TotalLUs float64
	// MeanJoules is the average radio energy consumed per node.
	MeanJoules float64
	// SavingPct is the per-node energy saving versus the ideal stream.
	SavingPct float64
	// LifetimeHours is the projected battery life at the run's steady
	// per-node update rate, under the default radio model.
	LifetimeHours float64
}

// EnergyResult is the battery-budget extension experiment: the paper
// motivates the ADF with the nodes' "low battery capacity"; this
// quantifies the claim under a first-order radio energy model.
type EnergyResult struct {
	Rows []EnergyRow
}

// EnergyBudget derives the energy summary from a completed campaign.
func (r *Results) EnergyBudget() EnergyResult {
	var out EnergyResult
	idealMean := r.Ideal.Energy.MeanSpent()
	nodes := float64(len(r.Ideal.Energy.Nodes()))
	add := func(run *Run) {
		model := run.Energy.Model()
		row := EnergyRow{
			Name:       run.Name,
			Factor:     run.Factor,
			TotalLUs:   run.TotalLUs(),
			MeanJoules: run.Energy.MeanSpent(),
		}
		if idealMean > 0 && run != r.Ideal {
			row.SavingPct = 100 * (1 - row.MeanJoules/idealMean)
		}
		if nodes > 0 && r.Config.Duration > 0 {
			perNodeRate := run.TotalLUs() / nodes / r.Config.Duration
			row.LifetimeHours = model.Lifetime(perNodeRate) / 3600
		}
		out.Rows = append(out.Rows, row)
	}
	add(r.Ideal)
	for _, run := range r.ADF {
		add(run)
	}
	return out
}

// Table renders the energy budget.
func (e EnergyResult) Table() *metrics.Table {
	t := metrics.NewTable("Energy budget (first-order radio model)",
		"filter", "total LUs", "mean J/node", "energy saved", "battery life")
	for _, row := range e.Rows {
		t.AddRow(row.Name,
			fmt.Sprintf("%.0f", row.TotalLUs),
			fmt.Sprintf("%.1f", row.MeanJoules),
			fmt.Sprintf("%.1f%%", row.SavingPct),
			fmt.Sprintf("%.1f h", row.LifetimeHours))
	}
	return t
}
