package experiment

import (
	"hash/fnv"
	"reflect"
	"strings"
	"testing"

	"github.com/mobilegrid/adf/internal/engine"
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

	seq, err := seqCfg.Run()
	if err != nil {
		t.Fatal(err)
	}
	par, err := parCfg.Run()
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

	seq, err := seqCfg.Run()
	if err != nil {
		t.Fatal(err)
	}
	par, err := parCfg.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Ideal, par.Ideal) || !reflect.DeepEqual(seq.ADF, par.ADF) {
		t.Errorf("runs differ between sequential and parallel execution under churn")
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

// TestFilterErrorNamesRun checks a filter that fails to build surfaces
// its task label and its run's name.
func TestFilterErrorNamesRun(t *testing.T) {
	c := shortConfig()
	c.Duration = 100
	// Config.Validate checks the ADF configuration at factor 1 only, so
	// this one fails when the pipeline builds its filters.
	_, err := runAll(1, []runTask{{label: "doomed", cfg: c, mk: c.adfFactory(-1)}})
	if err == nil {
		t.Fatal("want error from a negative DTH factor")
	}
	for _, want := range []string{"doomed", "adf(-1.00av)", "DTHFactor"} {
		if got := err.Error(); !strings.Contains(got, want) {
			t.Errorf("error %q does not name %q", got, want)
		}
	}
}

// TestPlanPasses pins the pass rule: tasks are grouped by world key —
// lane fields ignored, Burst and Churn compared by value — and each
// world is one pass, whatever the worker count.
func TestPlanPasses(t *testing.T) {
	c := shortConfig()
	tasks := c.campaignTasks() // ideal, 0.75av, 1.00av, 1.25av
	if got, want := planPasses(tasks), [][]int{{0, 1, 2, 3}}; !reflect.DeepEqual(got, want) {
		t.Errorf("campaign: passes %v, want %v", got, want)
	}

	lane := c
	lane.Estimator, lane.Smoothing, lane.Workers = EstimatorBrown, 0.5, 3
	lane.ADF.Cluster.Alpha = 2
	churnA, churnB := c, c
	churnA.Churn = &ChurnConfig{LeaveProb: 0.01, RejoinProb: 0.1}
	churnB.Churn = &ChurnConfig{LeaveProb: 0.01, RejoinProb: 0.1}
	seed := c
	seed.Seed = 2
	mixed := []runTask{
		{cfg: c, mk: idealFactory},
		{cfg: churnA, mk: idealFactory},
		{cfg: lane, mk: lane.adfFactory(1)},
		{cfg: seed, mk: idealFactory},
		{cfg: churnB, mk: churnB.adfFactory(1)},
	}
	want := [][]int{{0, 2}, {1, 4}, {3}}
	if got := planPasses(mixed); !reflect.DeepEqual(got, want) {
		t.Errorf("mixed worlds: passes %v, want %v", got, want)
	}
}

// TestCampaignJitterMatchesInline runs the paper campaign at seeds 1–3
// with its four lane stages trailing the world stage (Workers 2) while
// the engine delays them at random points, and holds every published
// output — each lane's series, tallies, quantiles, energy and cluster
// count, and the campaign digest over all of them — to the inline run
// (Workers 1).
func TestCampaignJitterMatchesInline(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		c := DefaultConfig()
		c.Seed = seed
		c.Duration = 300
		c.Workers = 1
		inline, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		c.Workers = 2
		engine.SetStageJitter(seed)
		jittered, err := c.Run()
		engine.SetStageJitter(0)
		if err != nil {
			t.Fatal(err)
		}
		want := append([]*Run{inline.Ideal}, inline.ADF...)
		for l, r := range append([]*Run{jittered.Ideal}, jittered.ADF...) {
			if got, want := runDigest(r), runDigest(want[l]); got != want {
				t.Errorf("seed %d lane %d (%s): outputs %#016x under jitter, %#016x inline", seed, l, r.Name, got, want)
			}
		}
		if got, want := campaignDigest(jittered), campaignDigest(inline); got != want {
			t.Errorf("seed %d: campaign digest %#016x under jitter, %#016x inline", seed, got, want)
		}
	}
}

// runDigest folds everything one run holds — every series, tally,
// summary, accumulator and the energy ledger — through digestValue.
func runDigest(r *Run) uint64 {
	h := fnv.New64a()
	digestValue(h, reflect.ValueOf(r))
	return h.Sum64()
}
