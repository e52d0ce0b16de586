package experiment

import (
	"fmt"
	"testing"
)

// TestPaperClaimsAcrossSeeds checks the paper's qualitative claims on
// full 1800 s campaigns at seeds 1–5: each claim must hold at every
// seed, not only at the one the figure tests use.
func TestPaperClaimsAcrossSeeds(t *testing.T) {
	claims := []struct {
		name  string
		check func(*Results) error
	}{
		{"fig4 reduction rises with the DTH factor", func(r *Results) error {
			rows := r.Fig4().Rows[1:] // ADF rows, ascending factor
			for i := 1; i < len(rows); i++ {
				if rows[i].Reduction <= rows[i-1].Reduction {
					return fmt.Errorf("%s reduces %.2f%%, %s %.2f%%",
						rows[i].Name, rows[i].Reduction, rows[i-1].Name, rows[i-1].Reduction)
				}
			}
			return nil
		}},
		{"fig6 roads transmit more than buildings at 0.75av", func(r *Results) error {
			for _, row := range r.Fig6().Rows {
				if row.Factor == 0.75 && row.RoadPct <= row.BuildingPct {
					return fmt.Errorf("roads %.2f%%, buildings %.2f%%", row.RoadPct, row.BuildingPct)
				}
			}
			return nil
		}},
		{"fig7 the LE lowers RMSE and RMSE rises with the factor", func(r *Results) error {
			rows := r.Fig7().Rows
			for i, row := range rows {
				if row.RMSEWithLE >= row.RMSENoLE {
					return fmt.Errorf("%s: RMSE with LE %.3f, without %.3f", row.Name, row.RMSEWithLE, row.RMSENoLE)
				}
				if i > 0 && (row.RMSENoLE <= rows[i-1].RMSENoLE || row.RMSEWithLE <= rows[i-1].RMSEWithLE) {
					return fmt.Errorf("RMSE does not rise from %s to %s", rows[i-1].Name, row.Name)
				}
			}
			return nil
		}},
		{"fig8/9 road RMSE is at least 1.5x building RMSE", func(r *Results) error {
			for _, fig := range []Fig89Result{r.Fig8(), r.Fig9()} {
				for _, row := range fig.Rows {
					if row.RoadOverBuilding < 1.5 {
						return fmt.Errorf("%s (with LE %v): road/building %.2f", row.Name, fig.WithLE, row.RoadOverBuilding)
					}
				}
			}
			return nil
		}},
		{"the LE lowers the P90 error", func(r *Results) error {
			noLE := map[string]float64{}
			rows := r.Percentiles().Rows
			for _, row := range rows {
				if !row.WithLE {
					noLE[row.Name] = row.P90
				}
			}
			for _, row := range rows {
				if row.WithLE && row.P90 >= noLE[row.Name] {
					return fmt.Errorf("%s: P90 with LE %.3f, without %.3f", row.Name, row.P90, noLE[row.Name])
				}
			}
			return nil
		}},
	}
	for seed := int64(1); seed <= 5; seed++ {
		cfg := DefaultConfig()
		cfg.Seed = seed
		res, err := cfg.Run()
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range claims {
			if err := c.check(res); err != nil {
				t.Errorf("seed %d: %s: %v", seed, c.name, err)
			}
		}
	}
}
