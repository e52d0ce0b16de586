//go:build adfcheck

package experiment

import "testing"

// TestSanitizedCampaignRun executes a full campaign simulation — ADF
// filter, churn, wireless drops, both brokers — with every runtime
// invariant armed. Any NaN position or estimate, out-of-campus
// coordinate, drifted cluster statistic, below-floor DTH or clock
// regression panics with file:line; a clean pass is the sanitizer's
// tier-1 acceptance.
func TestSanitizedCampaignRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full sanitized run is not short")
	}
	cfg := DefaultConfig()
	cfg.Duration = 200
	cfg.Churn = &ChurnConfig{LeaveProb: 0.005, RejoinProb: 0.1}
	run, err := cfg.runFilter(cfg.adfFactory(1.0))
	if err != nil {
		t.Fatal(err)
	}
	if run.TotalLUs() == 0 {
		t.Error("sanitized run transmitted no LUs")
	}
}
