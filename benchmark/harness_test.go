package main

import (
	"os"
	"testing"

	"github.com/mobilegrid/adf/internal/experiment"
)

func TestMain(m *testing.M) {
	// Children of the benchmark re-execute the test binary.
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestHarnessMatchesRunUncached pins the traced harness to the program:
// its ADF 1.00av run must equal the classic pipeline's bit for bit, with
// tracing on and off, in both RNG classes.
func TestHarnessMatchesRunUncached(t *testing.T) {
	for _, tc := range []struct {
		name  string
		keyed bool
		churn *experiment.ChurnConfig
	}{
		{name: "sequential"},
		{name: "keyed-churn", keyed: true, churn: &experiment.ChurnConfig{LeaveProb: 0.02, RejoinProb: 0.3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := experiment.DefaultConfig()
			c.Duration = 120
			c.DTHFactors = []float64{1.0}
			c.Churn = tc.churn
			if tc.keyed {
				c.RNGMode = experiment.RNGKeyed
			}
			res, err := c.RunUncached()
			if err != nil {
				t.Fatal(err)
			}
			want := res.ADF[0]
			wantP99 := withLEP99(res.Percentiles(), want.Name)

			for _, rec := range []*recorder{nil, newRecorder(threadMain)} {
				got, err := runHarness(c, rec)
				if err != nil {
					t.Fatal(err)
				}
				traced := rec != nil
				if got.totalLUs != want.TotalLUs() {
					t.Errorf("traced=%v: total LUs %v, RunUncached %v", traced, got.totalLUs, want.TotalLUs())
				}
				if got.rmseWithLE != want.RMSEWithLE.Overall() {
					t.Errorf("traced=%v: RMSE with LE %v, RunUncached %v", traced, got.rmseWithLE, want.RMSEWithLE.Overall())
				}
				if got.p99WithLE != wantP99 {
					t.Errorf("traced=%v: P99 with LE %v, RunUncached %v", traced, got.p99WithLE, wantP99)
				}
				if len(got.failures) > 0 {
					t.Errorf("traced=%v: output checks failed: %v", traced, got.failures)
				}
			}
		})
	}
}

// TestHarnessLedger checks that a traced harness run names every
// simulation layer and that the stage spans cover the tick.
func TestHarnessLedger(t *testing.T) {
	c := experiment.DefaultConfig()
	c.Duration = 120
	c.RNGMode = experiment.RNGKeyed
	c.Churn = &experiment.ChurnConfig{LeaveProb: 0.02, RejoinProb: 0.3}
	out, err := runHarness(c, newRecorder(threadMain))
	if err != nil {
		t.Fatal(err)
	}
	l := ledger(out.spans)
	for _, s := range []string{
		spanTick, spanBuild, spanNodeBuild, spanGatewayBuild, spanBrokerBuild, spanCoreBuild,
		spanAdvance, spanChurn, spanCollect, spanOffer, spanClassify, spanAssign, spanRebuild,
		spanStepNoLE, spanStepLE, spanRecord, spanFinalize,
	} {
		if l[s+".calls"] == 0 {
			t.Errorf("no calls recorded under %s", s)
		}
	}
	if got := l[spanTick+".calls"]; got != 120 {
		t.Errorf("engine.tick calls = %v, want 120", got)
	}
	if cov := tickCoverage(l); cov < 0.9 {
		t.Errorf("stage spans cover %.1f%% of engine.tick, want at least 90%%", 100*cov)
	}
	if out.extras["engine.churn_events"] == 0 {
		t.Error("no churn events under churn")
	}
}
