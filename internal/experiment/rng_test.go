package experiment

import (
	"strings"
	"testing"

	"github.com/mobilegrid/adf/internal/gateway"
	"github.com/mobilegrid/adf/internal/geo"
)

func TestValidateRejectsBadRNGModeAndNegativeShardWorkers(t *testing.T) {
	cfg := DefaultConfig()
	for _, bad := range []string{"quantum", "sequential"} {
		cfg.RNGMode = bad
		err := cfg.Validate()
		if err == nil {
			t.Fatalf("RNGMode=%s validated", bad)
		}
		if !strings.Contains(err.Error(), "RNGMode") || !strings.Contains(err.Error(), bad) {
			t.Errorf("RNGMode error %q does not name the field and the bad value", err)
		}
	}
	for _, mode := range []string{"", RNGKeyed} {
		cfg.RNGMode = mode
		if err := cfg.Validate(); err != nil {
			t.Errorf("RNGMode=%q rejected: %v", mode, err)
		}
	}
	cfg = DefaultConfig()
	cfg.ShardWorkers = -2
	err := cfg.Validate()
	if err == nil {
		t.Fatal("ShardWorkers=-2 validated")
	}
	if !strings.Contains(err.Error(), "ShardWorkers") {
		t.Errorf("ShardWorkers error %q does not name the field", err)
	}
}

// TestKeyedModeRunsBothPipelineShapes drives a short run — with churn
// and gateway drops on, so every keyed draw site fires — through the
// campus and the region partition.
func TestKeyedModeRunsBothPipelineShapes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Duration = 60
	cfg.Churn = &ChurnConfig{LeaveProb: 0.02, RejoinProb: 0.3}
	for _, shardWorkers := range []int{0, 2} {
		cfg.ShardWorkers = shardWorkers
		stats, err := cfg.MeasureHotpath()
		if err != nil {
			t.Fatalf("ShardWorkers=%d: %v", shardWorkers, err)
		}
		if stats.Ticks != 60 || stats.TotalLU == 0 {
			t.Errorf("ShardWorkers=%d: ticks %d, total LU %v — run produced no traffic",
				shardWorkers, stats.Ticks, stats.TotalLU)
		}
		phases := stats.BuildMS + stats.TickMS + stats.FinalizeMS
		if stats.BuildMS <= 0 || stats.TickMS <= 0 || stats.FinalizeMS < 0 ||
			!geo.NearEq(phases, stats.ElapsedMS, 1e-9) {
			t.Errorf("ShardWorkers=%d: phases build %v + ticks %v + finalize %v ms do not split elapsed %v ms",
				shardWorkers, stats.BuildMS, stats.TickMS, stats.FinalizeMS, stats.ElapsedMS)
		}
	}
}

// TestKeyedModeShardDigestsAgree is the worker-count oracle:
// CompareShardDigests with churn must hold bit-for-bit, because the
// shard-side churn partitions and gateway draws are pure functions of
// (node, tick).
func TestKeyedModeShardDigestsAgree(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Duration = 40
	cfg.Churn = &ChurnConfig{LeaveProb: 0.02, RejoinProb: 0.3}
	ticks, err := cfg.CompareShardDigests([]int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if ticks != 40 {
		t.Errorf("compared %d ticks, want 40", ticks)
	}
}

// TestKeyedModeBurstDigestsAgree covers the Gilbert–Elliott outage
// chain's keyed draws under the same oracle.
func TestKeyedModeBurstDigestsAgree(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Duration = 30
	cfg.Burst = &gateway.BurstConfig{PEnterOutage: 0.05, PExitOutage: 0.2, DropUp: 0.02, DropDown: 1}
	ticks, err := cfg.CompareShardDigests([]int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if ticks != 30 {
		t.Errorf("compared %d ticks, want 30", ticks)
	}
}
