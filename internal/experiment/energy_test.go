package experiment

import (
	"strings"
	"testing"
)

func TestEnergyBudget(t *testing.T) {
	res := sharedCampaign(t)
	budget := res.EnergyBudget()
	if len(budget.Rows) != 1+len(res.ADF) {
		t.Fatalf("rows = %d", len(budget.Rows))
	}
	ideal := budget.Rows[0]
	if ideal.Name != "ideal" || ideal.SavingPct != 0 {
		t.Errorf("ideal row = %+v", ideal)
	}
	if ideal.MeanJoules <= 0 || ideal.LifetimeHours <= 0 {
		t.Errorf("ideal energy = %+v", ideal)
	}
	prevSaving := 0.0
	for _, row := range budget.Rows[1:] {
		// Filtering saves energy, monotonically in the DTH factor.
		if row.SavingPct <= prevSaving {
			t.Errorf("%s: saving %.2f%% not above previous %.2f%%", row.Name, row.SavingPct, prevSaving)
		}
		prevSaving = row.SavingPct
		if row.LifetimeHours <= ideal.LifetimeHours {
			t.Errorf("%s: lifetime %.1f h not above ideal %.1f h", row.Name, row.LifetimeHours, ideal.LifetimeHours)
		}
	}
	out := budget.Table().String()
	if !strings.Contains(out, "Energy budget") || !strings.Contains(out, "battery life") {
		t.Errorf("table:\n%s", out)
	}
}

func TestRunEnergy(t *testing.T) {
	cfg := shortConfig()
	cfg.Duration = 120
	cfg.DTHFactors = []float64{1.0}
	res, err := cfg.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rows := res.EnergyBudget().Rows; len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	bad := cfg
	bad.Duration = -1
	if _, err := bad.Run(); err == nil {
		t.Error("invalid config accepted")
	}
}
