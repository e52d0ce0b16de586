package experiment

import (
	"reflect"
	"strings"
	"testing"
)

// TestParallelMatchesSequential is the engine's core determinism claim:
// a campaign executed on the parallel worker pool is bit-for-bit identical
// to the same campaign executed sequentially — every per-second series,
// per-region tally, RMSE accumulator and energy ledger included.
func TestParallelMatchesSequential(t *testing.T) {
	seqCfg := shortConfig()
	seqCfg.Duration = 200
	seqCfg.Workers = 1
	parCfg := seqCfg
	parCfg.Workers = 4

	seq, err := seqCfg.RunUncached()
	if err != nil {
		t.Fatal(err)
	}
	par, err := parCfg.RunUncached()
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(seq.Ideal, par.Ideal) {
		t.Errorf("ideal run differs between sequential and parallel execution")
	}
	if !reflect.DeepEqual(seq.ADF, par.ADF) {
		t.Errorf("ADF runs differ between sequential and parallel execution")
	}
}

// TestParallelMatchesSequentialWithChurn repeats the equivalence check
// with churn enabled, exercising the per-run "churn" RNG stream under
// concurrency.
func TestParallelMatchesSequentialWithChurn(t *testing.T) {
	seqCfg := shortConfig()
	seqCfg.Duration = 150
	seqCfg.Churn = &ChurnConfig{LeaveProb: 0.01, RejoinProb: 0.03}
	seqCfg.Workers = 1
	parCfg := seqCfg
	parCfg.Workers = 3

	seq, err := seqCfg.RunUncached()
	if err != nil {
		t.Fatal(err)
	}
	par, err := parCfg.RunUncached()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Ideal, par.Ideal) || !reflect.DeepEqual(seq.ADF, par.ADF) {
		t.Errorf("runs differ between sequential and parallel execution under churn")
	}
}

// TestMemoizedMatchesUncached checks the memoized path returns the very
// results an uncached campaign computes, and that a repeat call is served
// from the cache without new simulations.
func TestMemoizedMatchesUncached(t *testing.T) {
	ResetCampaignCache()
	defer ResetCampaignCache()

	cfg := shortConfig()
	cfg.Duration = 150

	uncached, err := cfg.RunUncached()
	if err != nil {
		t.Fatal(err)
	}
	memoized, err := cfg.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(uncached.Ideal, memoized.Ideal) ||
		!reflect.DeepEqual(uncached.ADF, memoized.ADF) {
		t.Errorf("memoized campaign differs from uncached campaign")
	}

	before := SimulationCount()
	again, err := cfg.Run()
	if err != nil {
		t.Fatal(err)
	}
	if again != memoized {
		t.Errorf("repeat Run returned a different Results pointer; want the cached one")
	}
	if d := SimulationCount() - before; d != 0 {
		t.Errorf("repeat Run executed %d simulations, want 0", d)
	}
	if hits, misses := CampaignCacheStats(); hits != 1 || misses != 1 {
		t.Errorf("cache hits/misses = %d/%d, want 1/1", hits, misses)
	}
}

// TestWorkersExcludedFromFingerprint checks sequential and parallel
// configurations share one cache entry: neither the campaign pool size
// nor the region partition's shard worker count changes results, so
// neither may split the cache.
func TestWorkersExcludedFromFingerprint(t *testing.T) {
	ResetCampaignCache()
	defer ResetCampaignCache()

	cfg := shortConfig()
	cfg.Duration = 100
	cfg.Workers = 1
	first, err := cfg.Run()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	second, err := cfg.Run()
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Errorf("Workers=1 and Workers=4 campaigns did not share a cache entry")
	}

	cfg.ShardWorkers = 1
	regionOne, err := cfg.Run()
	if err != nil {
		t.Fatal(err)
	}
	cfg.ShardWorkers = 4
	regionFour, err := cfg.Run()
	if err != nil {
		t.Fatal(err)
	}
	if regionOne != regionFour {
		t.Errorf("ShardWorkers=1 and ShardWorkers=4 campaigns did not share a cache entry")
	}
	if regionOne == first {
		t.Errorf("campus and region partitions shared a cache entry")
	}

	// "" and RNGKeyed name the same stream class.
	cfg.RNGMode = RNGKeyed
	keyed, err := cfg.Run()
	if err != nil {
		t.Fatal(err)
	}
	if keyed != regionOne {
		t.Errorf(`RNGMode "" and %q campaigns did not share a cache entry`, RNGKeyed)
	}
	if hits, misses := CampaignCacheStats(); hits != 3 || misses != 2 {
		t.Errorf("cache hits/misses = %d/%d, want 3/2", hits, misses)
	}
}

// TestFiguresShareOneCampaign is the acceptance check for the memoizing
// runner: regenerating figures 4–9 and the energy budget costs exactly one
// campaign — 1 + len(DTHFactors) simulations in total.
func TestFiguresShareOneCampaign(t *testing.T) {
	ResetCampaignCache()
	defer ResetCampaignCache()

	cfg := shortConfig()
	cfg.Duration = 150

	before := SimulationCount()
	if _, err := RunFig4(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := RunFig5(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := RunFig6(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := RunFig7(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := RunFig8(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := RunFig9(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := RunEnergy(cfg); err != nil {
		t.Fatal(err)
	}
	want := uint64(1 + len(cfg.DTHFactors))
	if d := SimulationCount() - before; d != want {
		t.Errorf("figures 4-9 + energy executed %d simulations, want %d", d, want)
	}
	if hits, misses := CampaignCacheStats(); misses != 1 || hits != 6 {
		t.Errorf("cache hits/misses = %d/%d, want 6/1", hits, misses)
	}
}

// TestRunAllPreservesOrder checks runAll returns runs in task order
// regardless of completion order.
func TestRunAllPreservesOrder(t *testing.T) {
	cfg := shortConfig()
	cfg.Duration = 100
	tasks := cfg.campaignTasks()
	runs, err := runAll(len(tasks), tasks)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != len(tasks) {
		t.Fatalf("got %d runs, want %d", len(runs), len(tasks))
	}
	if runs[0].Name != "ideal" {
		t.Errorf("runs[0] = %q, want ideal", runs[0].Name)
	}
	for i, factor := range cfg.DTHFactors {
		if runs[1+i].Factor != factor {
			t.Errorf("runs[%d].Factor = %v, want %v", 1+i, runs[1+i].Factor, factor)
		}
	}
}

// TestRunAllLabelsErrors checks a failing task surfaces its label.
func TestRunAllLabelsErrors(t *testing.T) {
	bad := shortConfig()
	bad.Duration = 100
	bad.Estimator = "nope" // runFilter's estimator construction fails
	_, err := runAll(2, []runTask{{label: "doomed", cfg: bad, mk: idealFactory}})
	if err == nil {
		t.Fatal("want error from unknown estimator")
	}
	if got := err.Error(); !strings.Contains(got, "doomed") {
		t.Errorf("error %q does not carry the task label", got)
	}
}
