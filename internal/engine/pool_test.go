package engine

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestGroupRunsEverything(t *testing.T) {
	g := NewGroup(4)
	var n atomic.Int64
	for i := 0; i < 100; i++ {
		g.Go(func() error {
			n.Add(1)
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 100 {
		t.Errorf("ran %d tasks, want 100", n.Load())
	}
}

func TestGroupBoundsConcurrency(t *testing.T) {
	const limit = 3
	g := NewGroup(limit)
	var cur, peak atomic.Int64
	for i := 0; i < 24; i++ {
		g.Go(func() error {
			c := cur.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > limit {
		t.Errorf("peak concurrency %d exceeds limit %d", p, limit)
	}
}

func TestGroupFirstError(t *testing.T) {
	g := NewGroup(1)
	boom := errors.New("boom")
	var after atomic.Int64
	g.Go(func() error { return boom })
	g.Go(func() error {
		// Later tasks still run; only the first error is reported.
		after.Add(1)
		return errors.New("second")
	})
	if err := g.Wait(); !errors.Is(err, boom) {
		t.Errorf("Wait err = %v, want boom", err)
	}
	if after.Load() != 1 {
		t.Errorf("second task did not run")
	}
}

// TestGroupConcurrentErrors fails tasks that run at once: under -race
// the first-error record is held to its mutex.
func TestGroupConcurrentErrors(t *testing.T) {
	g := NewGroup(4)
	for i := 0; i < 100; i++ {
		g.Go(func() error { return errors.New("boom") })
	}
	if err := g.Wait(); err == nil {
		t.Error("Wait err = nil, want the first task error")
	}
}

func TestGroupDefaultLimit(t *testing.T) {
	g := NewGroup(0)
	if cap(g.sem) < 1 {
		t.Errorf("default limit %d, want >= 1", cap(g.sem))
	}
	g.Go(func() error { return nil })
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
}
