//go:build adfcheck

package experiment

import (
	"runtime"
	"testing"
)

// TestSanitizedCampaignRun executes a full campaign simulation — ADF
// filter, churn, wireless drops, the lanes' brokers — with every runtime
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

// TestShardDigestGate is the region-partition determinism gate (`make
// check-sharded`): the default population runs the ADF scenario at DTH
// factor 1.0 for 120 ticks at 1 (the sequential reference), 4 and
// NumCPU shard workers in tick lockstep, every runtime invariant armed,
// and the per-tick state digests must be bit-identical across all
// worker counts — once without churn and once with the geometric churn
// timeline on.
func TestShardDigestGate(t *testing.T) {
	if testing.Short() {
		t.Skip("full sharded lockstep run is not short")
	}
	counts := []int{1, 4}
	if n := runtime.NumCPU(); n != 1 && n != 4 {
		counts = append(counts, n)
	}
	for _, tc := range []struct {
		name  string
		churn *ChurnConfig
	}{
		{"no-churn", nil},
		{"churn", &ChurnConfig{LeaveProb: 0.02, RejoinProb: 0.3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Duration = 120
			cfg.DTHFactors = []float64{1.0}
			cfg.Churn = tc.churn
			ticks, err := cfg.CompareShardDigests(counts)
			if err != nil {
				t.Fatal(err)
			}
			if ticks != 120 {
				t.Fatalf("compared %d ticks, want 120", ticks)
			}
			t.Logf("%d ticks compared at %v shard workers: state digests bit-identical", ticks, counts)
		})
	}
}
