// Package goroleak exercises the goroutine-lifecycle analyzer: the
// three termination witnesses (WaitGroup.Done, close-signalled channel,
// ctx.Done), a worker pool ended by closing its queue, the
// //adf:allow goroleak
// opt-out for process-lifetime goroutines (audited by allowaudit), and
// the leaks — a bare forever-loop and a witness hidden in a nested
// goroutine. The fixture is loaded as a concurrent package.
package goroleak

import (
	"context"
	"sync"
)

// pool drains work until stop closes the channel.
type pool struct {
	work chan int
	wg   sync.WaitGroup
}

func (p *pool) stop() { close(p.work) }

// start launches the pool's drainers: stop closes work, so ranging over
// it is the witness.
func (p *pool) start(n int) {
	for i := 0; i < n; i++ {
		go func() {
			for w := range p.work {
				_ = w
			}
		}()
	}
}

// tracked ties the goroutine to the WaitGroup: clean. jobs is a caller
// channel no one closes — the Done is the witness.
func (p *pool) tracked(jobs chan int) {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for w := range jobs {
			_ = w
		}
	}()
}

// pump launches a named worker; the Done witness is found through the
// static call: clean.
func (p *pool) pump(jobs chan int) {
	p.wg.Add(1)
	go p.drainOnce(jobs)
}

func (p *pool) drainOnce(jobs chan int) {
	defer p.wg.Done()
	for w := range jobs {
		_ = w
	}
}

// feed is closed by closeFeed: receiving from it is a termination
// witness in its own right, no WaitGroup needed.
var feed = make(chan int)

func closeFeed() { close(feed) }

// follow ranges the module-closed feed: clean.
func follow() {
	go func() {
		for v := range feed {
			_ = v
		}
	}()
}

// watch waits for cancellation: the ctx.Done receive is the witness.
func watch(ctx context.Context, tick chan int) {
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case v := <-tick:
				_ = v
			}
		}
	}()
}

// runForever leaks: no Done, no close-signalled channel, no context.
func runForever(events chan int) {
	go func() {
		for {
			events <- 1
		}
	}()
}

// nested hides the Done inside a second goroutine: the inner launch is
// vouched for, the outer one is flagged.
func (p *pool) nested() {
	go func() {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
		}()
	}()
}

// serve is deliberately process-lifetime: the allow says why.
func serve(requests chan int) {
	//adf:allow goroleak — fixture: serves until process exit
	go func() {
		for r := range requests {
			_ = r
		}
	}()
}

// sloppy opts out without saying why: allowaudit flags the allow.
func sloppy(requests chan int) {
	//adf:allow goroleak
	go func() {
		for r := range requests {
			_ = r
		}
	}()
}

// stale carries an allow covering no go statement: allowaudit flags it.
func stale() {
	//adf:allow goroleak — fixture: nothing underneath
	_ = 0
}
