package engine

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
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
