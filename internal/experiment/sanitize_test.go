package experiment

import "testing"

// TestCompareShardDigests pins the region partition's merge-order
// contract at the digest level across worker counts, churn included so
// every shard forgets and re-learns nodes mid-run. Under -tags adfcheck the same ticks additionally
// execute every sanitizer invariant.
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
