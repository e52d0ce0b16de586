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
