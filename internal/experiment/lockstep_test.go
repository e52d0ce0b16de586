package experiment

import (
	"runtime"
	"testing"
)

// TestCompareShardDigests pins the region partition's merge-order
// contract at the digest level across worker counts, churn included so
// every shard forgets and re-learns nodes mid-run, with the run oracle
// held at every tick.
func TestCompareShardDigests(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Duration = 40
	cfg.PerGroup = 1
	cfg.Churn = &ChurnConfig{LeaveProb: 0.01, RejoinProb: 0.2}
	ticks, err := cfg.CompareShardDigests([]int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if ticks != 40 {
		t.Errorf("compared %d ticks, want 40", ticks)
	}
}

// TestCompareShardDigestsRejectsBadCounts: the comparison needs at
// least two worker counts, all >= 1.
func TestCompareShardDigestsRejectsBadCounts(t *testing.T) {
	cfg := DefaultConfig()
	if _, err := cfg.CompareShardDigests([]int{4}); err == nil {
		t.Error("expected an error for a single worker count")
	}
	if _, err := cfg.CompareShardDigests([]int{0, 4}); err == nil {
		t.Error("expected an error for a zero worker count")
	}
}

// TestSanitizedCampaignRun holds a campus-partition campaign pass — the
// ideal baseline and the ADF at 1.0av, with churn and wireless drops —
// to the run oracle at every tick of a 200 s run, at inline (Workers 1)
// and trailing (Workers 2) lane stages, whose state digests must agree.
func TestSanitizedCampaignRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Duration = 200
	cfg.DTHFactors = []float64{1.0}
	cfg.Churn = &ChurnConfig{LeaveProb: 0.005, RejoinProb: 0.1}
	inline, trailing := cfg, cfg
	inline.Workers, trailing.Workers = 1, 2
	runs, ticks, err := lockstep([]Config{inline, trailing})
	if err != nil {
		t.Fatal(err)
	}
	if ticks != 200 {
		t.Fatalf("checked %d ticks, want 200", ticks)
	}
	if runs[0][1].TotalLUs() == 0 {
		t.Error("the ADF run transmitted no LUs")
	}
}

// TestShardDigestGate is the region-partition determinism gate (`make
// check-sharded` runs it under -race): the default population's campaign
// pass at DTH factor 1.0 runs for 120 ticks at 1 (the sequential
// reference), 4 and NumCPU shard workers in tick lockstep, the run
// oracle held at every tick, and the per-tick state digests must be
// bit-identical across all worker counts — once without churn and once
// with the geometric churn timeline on.
func TestShardDigestGate(t *testing.T) {
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
