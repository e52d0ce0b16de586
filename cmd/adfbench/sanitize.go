package main

import (
	"fmt"
	"io"
	"runtime"

	"github.com/mobilegrid/adf/internal/experiment"
	"github.com/mobilegrid/adf/internal/sanitize"
)

// shardDigestWorkerCounts is the worker-count matrix the -shard-digest
// gate compares: the sequential region-partition reference, a fixed
// parallel count, and whatever this machine's scheduler limit is,
// deduplicated.
func shardDigestWorkerCounts() []int {
	counts := []int{1, 4}
	if n := runtime.NumCPU(); n != 1 && n != 4 {
		counts = append(counts, n)
	}
	return counts
}

// runShardDigest is the -shard-digest mode: the pipeline's region
// partition runs the configured scenario once per worker count in tick
// lockstep and the per-tick state digests are compared for
// bit-identity, proving the shard merge is deterministic at any
// parallelism. It refuses to run in a default build — the no-op
// sanitizer would make the "every invariant held" claim vacuous; `make
// check-sharded` is the CI gate built on it.
func runShardDigest(w io.Writer, cfg experiment.Config) error {
	if !sanitize.Enabled {
		return fmt.Errorf("the sanitizer is not compiled in: rebuild with -tags adfcheck (e.g. `go run -tags adfcheck ./cmd/adfbench -shard-digest`)")
	}
	counts := shardDigestWorkerCounts()
	ticks, err := cfg.CompareShardDigests(counts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "shard-digest: %d ticks compared at %v shard workers: state digests bit-identical, every invariant held\n", ticks, counts)
	return nil
}
