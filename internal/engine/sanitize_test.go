//go:build adfcheck

package engine

import (
	"math"
	"regexp"
	"strings"
	"testing"
)

// expectSanitizerPanic asserts f panics with an adfcheck message that
// carries a file:line and the given fragment — the acceptance shape for
// an injected corruption.
func expectSanitizerPanic(t *testing.T, fragment string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("corruption was not caught: expected a sanitizer panic containing %q", fragment)
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("unexpected panic value %v", r)
		}
		if !regexp.MustCompile(`^adfcheck: \w+\.go:\d+: `).MatchString(msg) {
			t.Errorf("panic %q does not lead with a file:line", msg)
		}
		if !strings.Contains(msg, fragment) {
			t.Errorf("panic %q does not mention %q", msg, fragment)
		}
	}()
	f()
}

// TestSanitizerCatchesNaNPosition injects the canonical corruption — a
// forced NaN coordinate — into a sample in the tick's buffer and asserts
// the per-sample check a shard job runs fails with a file:line panic.
func TestSanitizerCatchesNaNPosition(t *testing.T) {
	p := newTestPipeline(t, 0, nil, nil)
	if err := p.Tick(1); err != nil {
		t.Fatalf("healthy tick: %v", err)
	}
	p.samples[3].Pos.X = math.NaN()
	expectSanitizerPanic(t, "non-finite position", func() { p.san.checkSample(&p.samples[3]) })
}

// TestSanitizerCatchesEscapedPosition: a position outside the campus
// bounding box is a mobility-model bug.
func TestSanitizerCatchesEscapedPosition(t *testing.T) {
	p := newTestPipeline(t, 0, nil, nil)
	if err := p.Tick(1); err != nil {
		t.Fatalf("healthy tick: %v", err)
	}
	p.samples[0].Pos = p.san.bounds.Max.Add(p.san.bounds.Max.Sub(p.san.bounds.Min)) // far outside
	expectSanitizerPanic(t, "outside bounds", func() { p.san.checkSample(&p.samples[0]) })
}

// TestSanitizerCatchesBackwardsClock: tick times may only increase.
func TestSanitizerCatchesBackwardsClock(t *testing.T) {
	p := newTestPipeline(t, 0, nil, nil)
	if err := p.Tick(5); err != nil {
		t.Fatalf("healthy tick: %v", err)
	}
	expectSanitizerPanic(t, "time moved backwards", func() { p.san.checkClock(p.Nodes, 4) })
}

// TestSanitizedRunIsClean drives a full pipeline run with churn under
// every invariant: nothing may fire on healthy code.
func TestSanitizedRunIsClean(t *testing.T) {
	p := newTestPipeline(t, 0.05, nil, nil)
	for tick := 1; tick <= 50; tick++ {
		if err := p.Tick(float64(tick)); err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
	}
}
