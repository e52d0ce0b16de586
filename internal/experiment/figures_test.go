package experiment

import (
	"strings"
	"sync"
	"testing"
)

// campaign caches one short campaign across the figure tests; the derive
// methods are pure so sharing is safe.
var (
	campaignOnce sync.Once
	campaignRes  *Results
	campaignErr  error
)

func sharedCampaign(t *testing.T) *Results {
	t.Helper()
	campaignOnce.Do(func() {
		cfg := shortConfig()
		cfg.Duration = 600
		campaignRes, campaignErr = cfg.Run()
	})
	if campaignErr != nil {
		t.Fatal(campaignErr)
	}
	return campaignRes
}

func TestRunTable1(t *testing.T) {
	res := RunTable1()
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(res.Rows))
	}
	total := 0
	for _, r := range res.Rows {
		total += r.Count
	}
	if total != 140 {
		t.Errorf("total MNs = %d, want 140", total)
	}
	// Row order mirrors the paper's Table 1.
	if res.Rows[0].RegionKind != "road" || res.Rows[0].NodeType != "human" {
		t.Errorf("row 0 = %+v", res.Rows[0])
	}
	if res.Rows[1].NodeType != "vehicle" || res.Rows[1].MaxSpeed != 10 {
		t.Errorf("row 1 = %+v", res.Rows[1])
	}
	if res.Rows[2].Mobility != "SS" || res.Rows[2].Count != 30 {
		t.Errorf("row 2 = %+v", res.Rows[2])
	}
	out := res.Table().String()
	if !strings.Contains(out, "Table 1") || !strings.Contains(out, "vehicle") {
		t.Errorf("table rendering:\n%s", out)
	}
}

func TestFig4(t *testing.T) {
	res := sharedCampaign(t)
	fig := res.Fig4()
	if len(fig.Rows) != 1+len(res.ADF) {
		t.Fatalf("rows = %d", len(fig.Rows))
	}
	if fig.Rows[0].Name != "ideal" || fig.Rows[0].Reduction != 0 {
		t.Errorf("first row = %+v, want ideal with 0 reduction", fig.Rows[0])
	}
	for i := 2; i < len(fig.Rows); i++ {
		if fig.Rows[i].Reduction <= fig.Rows[i-1].Reduction {
			t.Errorf("reductions not increasing: %+v", fig.Rows)
		}
	}
	for name, series := range fig.Series {
		if len(series) == 0 {
			t.Errorf("empty series for %s", name)
		}
	}
	if !strings.Contains(fig.Table().String(), "Figure 4") {
		t.Error("table title missing")
	}
}

func TestFig5ConsistentWithFig4(t *testing.T) {
	res := sharedCampaign(t)
	fig5 := res.Fig5()
	if len(fig5.Rows) != 1+len(res.ADF) {
		t.Fatalf("rows = %d", len(fig5.Rows))
	}
	for _, row := range fig5.Rows {
		if fig5.Fewer[row.Name] != fig5.Rows[0].Value-row.Value {
			t.Errorf("%s: fewer = %v, want %v", row.Name, fig5.Fewer[row.Name], fig5.Rows[0].Value-row.Value)
		}
		series := fig5.Series[row.Name]
		if len(series) == 0 {
			t.Fatalf("%s: empty cumulative series", row.Name)
		}
		// Cumulative series is non-decreasing and ends at the total.
		for i := 1; i < len(series); i++ {
			if series[i] < series[i-1] {
				t.Errorf("%s: cumulative series decreases at %d", row.Name, i)
			}
		}
		if series[len(series)-1] != row.Value {
			t.Errorf("%s: series ends at %v, want %v", row.Name, series[len(series)-1], row.Value)
		}
	}
}

func TestFig6(t *testing.T) {
	res := sharedCampaign(t)
	fig := res.Fig6()
	if len(fig.Rows) != len(res.ADF) {
		t.Fatalf("rows = %d", len(fig.Rows))
	}
	for _, row := range fig.Rows {
		if row.RoadPct <= 0 || row.RoadPct > 110 {
			t.Errorf("%s: road pct = %v", row.Name, row.RoadPct)
		}
		if row.BuildingPct <= 0 || row.BuildingPct > 110 {
			t.Errorf("%s: building pct = %v", row.Name, row.BuildingPct)
		}
	}
	// At the smallest DTH roads transmit relatively more than buildings
	// (the paper's 90.44% vs 68.54% observation).
	small := fig.Rows[0]
	if small.RoadPct <= small.BuildingPct {
		t.Errorf("at %.2fav road %.1f%% not above building %.1f%%", small.Factor, small.RoadPct, small.BuildingPct)
	}
	// Per-region detail covers all 11 regions for every run.
	for name, per := range fig.PerRegion {
		if len(per) != 11 {
			t.Errorf("%s: per-region entries = %d, want 11", name, len(per))
		}
	}
}

func TestFig7LEReducesError(t *testing.T) {
	res := sharedCampaign(t)
	fig := res.Fig7()
	if len(fig.Rows) != len(res.ADF) {
		t.Fatalf("rows = %d", len(fig.Rows))
	}
	for _, row := range fig.Rows {
		if row.RMSENoLE <= 0 {
			t.Errorf("%s: RMSE w/o LE = %v", row.Name, row.RMSENoLE)
		}
		// The headline Figure-7 claim: the LE reduces the location error.
		if row.RMSEWithLE >= row.RMSENoLE {
			t.Errorf("%s: LE did not reduce RMSE (%.2f -> %.2f)", row.Name, row.RMSENoLE, row.RMSEWithLE)
		}
		if row.RatioPct <= 0 || row.RatioPct >= 100 {
			t.Errorf("%s: ratio = %v%%", row.Name, row.RatioPct)
		}
	}
	// Error grows with the DTH factor.
	for i := 1; i < len(fig.Rows); i++ {
		if fig.Rows[i].RMSENoLE <= fig.Rows[i-1].RMSENoLE {
			t.Errorf("RMSE not increasing with factor: %+v", fig.Rows)
		}
	}
}

func TestFig8And9RoadDominatesBuilding(t *testing.T) {
	res := sharedCampaign(t)
	for _, fig := range []Fig89Result{res.Fig8(), res.Fig9()} {
		if len(fig.Rows) != len(res.ADF) {
			t.Fatalf("rows = %d", len(fig.Rows))
		}
		for _, row := range fig.Rows {
			// The paper's Figures 8–9: road errors dominate building
			// errors by a large factor (≈4.5–4.7×).
			if row.RoadOverBuilding < 1.5 {
				t.Errorf("withLE=%v %s: road/building = %.2f, want > 1.5", fig.WithLE, row.Name, row.RoadOverBuilding)
			}
		}
		out := fig.Table().String()
		if !strings.Contains(out, "RMSE by region") {
			t.Error("table title missing")
		}
	}
}

func TestSampleEvery(t *testing.T) {
	in := []float64{1, 2, 3, 4, 5, 6, 7}
	got := sampleEvery(in, 3)
	want := []float64{3, 6, 7}
	if len(got) != len(want) {
		t.Fatalf("sampleEvery = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sampleEvery = %v, want %v", got, want)
		}
	}
	if got := sampleEvery(in, 1); len(got) != len(in) {
		t.Errorf("width 1 = %v", got)
	}
	if got := sampleEvery(nil, 3); len(got) != 0 {
		t.Errorf("empty input = %v", got)
	}
	// Exact multiple: no duplicate of the last element.
	got = sampleEvery([]float64{1, 2, 3, 4}, 2)
	if len(got) != 2 || got[1] != 4 {
		t.Errorf("exact multiple = %v", got)
	}
}

func TestPercentiles(t *testing.T) {
	res := sharedCampaign(t)
	p := res.Percentiles()
	if len(p.Rows) != 2*len(res.ADF) {
		t.Fatalf("rows = %d", len(p.Rows))
	}
	for _, row := range p.Rows {
		if row.P50 > row.P90 || row.P90 > row.P99 || row.P99 > row.Max {
			t.Errorf("%s (LE=%v): quantiles not monotone: %+v", row.Name, row.WithLE, row)
		}
	}
	// The LE must improve the bulk of the distribution (p90) at every
	// factor even where the extreme tail is mixed.
	for i := 0; i < len(p.Rows); i += 2 {
		noLE, withLE := p.Rows[i], p.Rows[i+1]
		if withLE.P90 >= noLE.P90 {
			t.Errorf("%s: LE p90 %.2f not below no-LE p90 %.2f", noLE.Name, withLE.P90, noLE.P90)
		}
	}
	if !strings.Contains(p.Table().String(), "percentiles") {
		t.Error("table title missing")
	}
}
