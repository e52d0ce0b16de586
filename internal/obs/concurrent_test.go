package obs

import (
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

// The registry, the trace rings, the event log and the status page keep
// mutex-guarded state that one goroutine writes while another reads it.
// Under -race (make race repeats these tests) an access that skips its
// lock is a reported data race.

// concurrently runs every fn n times, each on a goroutine of its own,
// all at once.
func concurrently(n int, fns ...func()) {
	var wg sync.WaitGroup
	for _, fn := range fns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				fn()
			}
		}()
	}
	wg.Wait()
}

// Each lookup registers a new family: new series of an existing family
// are appended outside what a scrape copies under the lock.
func TestRegistryConcurrentLookupAndScrape(t *testing.T) {
	r := NewRegistry()
	var n atomic.Int64
	concurrently(100,
		func() { r.Counter("c" + strconv.FormatInt(n.Add(1), 10) + "_total") },
		func() { _ = r.WritePrometheus(io.Discard) },
		func() { _ = r.Snapshot() },
	)
	if got := len(r.snapshotFamilies()); got != 100 {
		t.Errorf("%d families, want 100", got)
	}
}

func TestSpanRingConcurrentRecordAndSnapshot(t *testing.T) {
	var r traceRing[int]
	concurrently(100,
		func() { r.record([]int{1, 2}) },
		func() { _ = r.snapshot() },
		func() { _ = r.count() },
	)
	if got := r.count(); got != 200 {
		t.Errorf("ring holds %d records, want 200", got)
	}
}

func TestEventLogConcurrentEmit(t *testing.T) {
	var log EventLog
	log.SetOutput(io.Discard)
	concurrently(100,
		func() { log.Emit("a", F("x", 1)) },
		func() { log.Emit("b", S("y", "z")) },
		func() { _ = log.Seq() },
	)
	if got := log.Seq(); got != 200 {
		t.Errorf("seq = %d, want 200", got)
	}
}

func TestStatusConcurrentRegisterAndRender(t *testing.T) {
	concurrently(50,
		func() { RegisterStatusSection("concurrent", func() string { return "x\n" }) },
		func() { WriteStatus(io.Discard) },
	)
}
