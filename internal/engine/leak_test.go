package engine

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/mobilegrid/adf/internal/core"
	"github.com/mobilegrid/adf/internal/filter"
)

// waitForGoroutines polls until the live goroutine count settles back
// to the baseline, failing the test if it never does.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var n int
	for time.Now().Before(deadline) {
		n = runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d live, baseline %d", n, baseline)
}

// TestGroupGoroutinesDrain pins the bounded-parallelism pool: after
// Wait returns, every task goroutine has exited.
func TestGroupGoroutinesDrain(t *testing.T) {
	baseline := runtime.NumGoroutine()
	g := NewGroup(8)
	var ran atomic.Int64
	for i := 0; i < 64; i++ {
		g.Go(func() error {
			ran.Add(1)
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 64 {
		t.Fatalf("ran %d tasks, want 64", ran.Load())
	}
	waitForGoroutines(t, baseline)
}

// TestShardPoolGoroutinesDrain pins the pipeline's persistent worker
// pool: closing the work channel ends every worker.
func TestShardPoolGoroutinesDrain(t *testing.T) {
	baseline := runtime.NumGoroutine()
	var ran atomic.Int64
	p := newShardPool(4, func(int) { ran.Add(1) })
	jobs := make([]int, 16)
	p.dispatch(jobs)
	p.dispatch(jobs)
	if ran.Load() != 32 {
		t.Fatalf("ran %d job dispatches, want 32", ran.Load())
	}
	p.close()
	waitForGoroutines(t, baseline)
}

// failingObserver is a streamObserver whose OnOffered fails from tick
// failAt on with err; failAt 0 never fails.
type failingObserver struct {
	*streamObserver
	failAt float64
	err    error
}

func (o failingObserver) OnOffered(s Sample) error {
	if o.failAt != 0 && s.Time >= o.failAt {
		return o.err
	}
	return o.streamObserver.OnOffered(s)
}

// newThreeLanes builds a concurrent three-lane pipeline — the ideal
// filter, an ADF and a 1.25av view of its front — in the partition
// workers selects, with drops and churn on; lane l's observer is
// observers[l].
func newThreeLanes(t *testing.T, workers int, observers [3]Observer) *Pipeline {
	t.Helper()
	p := newTestSharded(t, 11, 0.2, [2]float64{0.02, 0.3}, workers, idealFactory)
	p.NewFilters = func() ([]filter.Filter, error) {
		f, err := adfFactory()
		if err != nil {
			return nil, err
		}
		a := f.(*core.ADF)
		return []filter.Filter{filter.NewIdealLU(), a, a.At(1.25)}, nil
	}
	p.Lanes = p.Lanes[:0]
	for _, ob := range observers {
		p.Lanes = append(p.Lanes, Lane{NoLE: newBroker(), WithLE: newBroker(), Observer: ob})
	}
	p.Concurrent = true
	return p
}

// TestLeakStageShutdown: a concurrent pipeline leaves no stage goroutine
// behind when it is closed mid-run, when one lane's observer fails, and
// when it is built but never ticked; Close returns the first observer
// error by tick, then lane order, whichever lane raised it first in
// wall-clock time.
func TestLeakStageShutdown(t *testing.T) {
	for _, workers := range []int{0, 2} {
		baseline := runtime.NumGoroutine()

		// Closed mid-run.
		p := newThreeLanes(t, workers, [3]Observer{})
		for tick := 1; tick <= 20; tick++ {
			if err := p.Tick(float64(tick)); err != nil {
				t.Fatalf("workers=%d: Tick(%d) = %v", workers, tick, err)
			}
		}
		if err := p.Close(); err != nil {
			t.Fatalf("workers=%d: Close mid-run = %v", workers, err)
		}
		waitForGoroutines(t, baseline)

		// Observer errors: lanes 1 and 2 fail on tick 6, lane 0 on tick
		// 9. The first error is lane 1's. The lanes are jittered so the
		// failures land in varying wall-clock order.
		SetStageJitter(int64(workers) + 3)
		errs := [3]error{errors.New("lane 0"), errors.New("lane 1"), errors.New("lane 2")}
		at := [3]float64{9, 6, 6}
		var observers [3]Observer
		for l := range observers {
			observers[l] = failingObserver{streamObserver: newStreamObserver(), failAt: at[l], err: errs[l]}
		}
		p = newThreeLanes(t, workers, observers)
		var err error
		for tick := 1; tick <= 30 && err == nil; tick++ {
			err = p.Tick(float64(tick))
		}
		SetStageJitter(0)
		if err != nil && !errors.Is(err, errs[1]) {
			t.Errorf("workers=%d: Tick = %v, want lane 1's error", workers, err)
		}
		if cerr := p.Close(); !errors.Is(cerr, errs[1]) {
			t.Errorf("workers=%d: Close = %v, want lane 1's error", workers, cerr)
		}
		waitForGoroutines(t, baseline)

		// Built, never ticked.
		p = newThreeLanes(t, workers, [3]Observer{})
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		if err := p.Close(); err != nil {
			t.Errorf("workers=%d: Close of an unticked pipeline = %v", workers, err)
		}
		waitForGoroutines(t, baseline)
	}
}
