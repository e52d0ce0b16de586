package engine

import (
	"runtime"
	"sync"
)

// Group runs tasks concurrently on a bounded worker pool and collects the
// first error — a stdlib-only errgroup with a concurrency limit. The zero
// value is not usable; construct with NewGroup.
type Group struct {
	sem chan struct{}
	wg  sync.WaitGroup
	mu  sync.Mutex

	err error
}

// NewGroup returns a group that runs at most limit tasks at once. A
// non-positive limit means one worker per available CPU
// (runtime.GOMAXPROCS).
func NewGroup(limit int) *Group {
	if limit <= 0 {
		limit = runtime.GOMAXPROCS(0)
	}
	return &Group{sem: make(chan struct{}, limit)}
}

// Go schedules one task. It blocks while the pool is full, which bounds
// both concurrency and the number of live goroutines. Tasks keep running
// after a failure; Wait reports the first error.
func (g *Group) Go(f func() error) {
	g.sem <- struct{}{}
	g.wg.Add(1)
	// Every task owns its whole simulation, so scheduling order cannot
	// matter.
	go func() {
		defer func() {
			<-g.sem
			g.wg.Done()
		}()
		if err := f(); err != nil {
			g.mu.Lock()
			if g.err == nil {
				g.err = err
			}
			g.mu.Unlock()
		}
	}()
}

// Wait blocks until every scheduled task has finished and returns the
// first error any of them reported.
func (g *Group) Wait() error {
	g.wg.Wait()
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}
