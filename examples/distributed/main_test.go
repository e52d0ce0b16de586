package main

import (
	"io"
	"testing"
	"time"
)

// TestRunCompletes runs the whole example 20 times, each under a
// deadline. A run that loses the start-up race (a federate that misses
// the synchronization point waits for it forever) fails the test at the
// deadline instead of blocking it; its goroutines are left behind.
func TestRunCompletes(t *testing.T) {
	const runs, deadline = 20, 10 * time.Second
	for i := range runs {
		done := make(chan error, 1)
		go func() { done <- run(io.Discard) }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run %d: %v", i, err)
			}
		case <-time.After(deadline):
			t.Fatalf("run %d still running after %v: the federation hung", i, deadline)
		}
	}
}
