GO ?= go

.PHONY: build test vet lint race check-sharded check-obs-e2e bench-smoke bench-regress bench-harness ci bench bench-obs profile

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...
	# copylocks is part of go vet's default suite; this second pass names it
	# explicitly so a toolchain default change can never silently drop the
	# one analyzer the engine's mutex-bearing types depend on.
	$(GO) vet -copylocks ./...
	# The tree stays gofmt-clean, lint fixtures included.
	test -z "$$(gofmt -l .)"

# adflint is the project's own static-analysis pass (internal/lint): the
# rules no run can enforce (wall clock and global rand, map order,
# keyed-stream ownership, lock order, goroutine termination, enum
# exhaustiveness, float equality, obs gating) and allowaudit's
# stale/unknown/reason-less suppression audit (`go run ./cmd/adflint
# -list` prints the rules). The zero-allocation tick, shard isolation
# and lock discipline are held by runs instead: TestZeroAllocTick,
# check-sharded and race. The shipped tree must lint clean; any
# violation exits non-zero and fails ci. The
# pass also writes a SARIF v2.1.0 report for CI's code-scanning upload
# (written even when clean, so fixed findings are resolved upstream).
lint:
	$(GO) run ./cmd/adflint -sarif adflint.sarif

# Run the whole module under the race detector. This includes the
# observability gate: the end-to-end smoke test (full run with obs
# enabled; Chrome trace must parse as JSON, the registry must account
# the run, event lines must be valid NDJSON), the zero-allocation tick
# tests and the obs unit suite with its live /metrics scrape. The second
# step repeats the staged-pass tests — concurrent lane stages under
# random delays, shutdown and leak checks, close and restart, the
# campaign's zero-allocation lanes — three times on two Ps, so the
# trailing lane stages and the tick-frame ring run concurrently even on
# a 1-CPU runner. The last step does the same for the mutex-guarded
# state of the engine's task group, the RTI (server, federation table,
# federate clocks, connection writers) and obs (registry, span rings,
# event log, status page): the race detector is the one check of their
# lock discipline, and these tests touch each from two goroutines.
race:
	$(GO) test -race ./...
	GOMAXPROCS=2 $(GO) test -race -count=3 -run 'Jitter|Lanes|Leak|Lifecycle' ./internal/engine ./internal/experiment
	GOMAXPROCS=2 $(GO) test -race -count=3 -run 'Shutdown|Server|Registry|Span|EventLog|Status|Concurrent' ./internal/engine ./internal/hla ./internal/obs

# check-sharded runs the region-partition determinism gate
# (TestShardDigestGate, part of tier-1) under the race detector: the
# pipeline's region partition runs the campaign pass at 1 (the
# sequential reference), 4 and NumCPU shard workers in tick lockstep
# for 120 ticks with the run oracle held at every tick, and the
# per-tick state digests — node positions, broker beliefs, shard
# membership, per-shard cluster statistics — must be bit-identical
# across all worker counts. The race detector proves the same run's
# shard fan-out data-race free. A second subtest repeats the gate with
# node churn on, so the geometric churn timeline is held to the same
# bit-identity bar.
check-sharded:
	$(GO) test -race -run TestShardDigestGate -count=1 ./internal/experiment

# check-obs-e2e is the cross-process tracing gate: a real rtiserver and
# two adffed federates (sender and receiver) run over TCP with tracing
# on, adfobs merges the three per-process Chrome traces on one aligned
# timeline, and at least 99% of the sender's LU origin spans must link
# to a receiver-side delivery span by trace ID. Set ADFOBS_E2E_OUT to
# keep the merged trace (CI uploads it as an artifact).
check-obs-e2e:
	ADF_OBS_E2E=1 $(GO) test -run TestObsE2E -count=1 ./cmd/adfobs

# bench-smoke is the perf-regression gate: a short hot-path run at the
# ~5k-node scale that fails if the steady-state
# (post-warmup) allocation rate of the tick pipeline rises above 2
# allocs/tick — the pinned budget the optimized pipeline holds with
# double-digit headroom (the recorded number is 0). Throughput is not
# gated (CI machines vary); the allocation floor is machine-independent.
# The second step is the RTI allocation gate (TestRTIAllocsPerLU): the
# loopback TCP lockstep fails above 2.5 allocs/LU with one receiver or
# 8.5 with four (the recorded numbers are 2.03 and 8.06), the
# in-process one above 3.5 or 12.5. The third runs
# the TCP RTI lockstep microbenchmark (one sender, 1 and 4 receivers,
# 405 pipelined sends of one class and time, which leave as one run in
# one frame, and one time advance per step) for 20 steps each,
# reporting ns/LU, allocs/LU and interactions/frame (the mean run
# length, 405), so a transport change that breaks the loopback
# send→deliver path or its fan-out fails here, and one that stops
# batching shows in interactions/frame. The next step
# runs the error summary microbenchmark once (2M samples, 60% exact
# zeros: record, then publish P50/P90/P99/Max), reporting ns/op and B/op.
# The last runs one seed's paper campaign once at campaign Workers 1 and
# 2 (BenchmarkCampaign140MN), reporting ns/op, passes and lanes per pass
# (one pass of four lanes at both: inline lane stages at 1, trailing
# ones at 2), so a change that stops the campaign's runs sharing one
# pass shows there.
bench-smoke:
	$(GO) run ./cmd/adfbench -hotpath -duration 120 -seed 1 -scales 5k \
		-alloc-budget 2 -hotpath-out /dev/null
	$(GO) test -run '^TestRTIAllocsPerLU$$' -count=1 -v ./internal/hla
	$(GO) test -run '^$$' -bench BenchmarkRTILockstep -benchtime 20x ./internal/hla
	$(GO) test -run '^$$' -bench BenchmarkSummaryPercentiles -benchtime 1x ./internal/metrics
	$(GO) test -run '^$$' -bench BenchmarkCampaign140MN -benchtime 1x ./internal/experiment

# bench-regress re-measures the CI-sized scale points of the committed
# BENCH_hotpath.json and BENCH_obs.json baselines under their own
# recorded protocol and fails on throughput (when the CPU configuration
# matches the baseline's), allocation-floor or obs-overhead regressions.
# See cmd/adfbench/regress.go for the noise bands.
bench-regress:
	$(GO) run ./cmd/adfbench -regress

# bench-harness vets and tests the repository benchmark under
# benchmark/, a module of its own that compiles against the internal
# packages (node.Population, the sim streams, the brokers' and the
# ADF's Preallocate, experiment.Config): the module's own build and
# tests never compile it, so an API change that breaks the benchmark
# fails here instead of at its next run.
bench-harness:
	cd benchmark && $(GO) vet ./... && $(GO) test -count=1 ./...

# ci builds with -trimpath so artifacts are reproducible regardless of
# the checkout location.
ci: export GOFLAGS += -trimpath
ci: build vet lint test race check-obs-e2e check-sharded bench-smoke bench-regress bench-harness

# Run the hot-path microbenchmarks (cluster assignment, geometry,
# mobility, the gap-aware LE, tick loop) and regenerate
# BENCH_hotpath.json at the baseline protocol (duration 300, seed 1) at
# every scale up to a million nodes; the 200k and 1m points dominate the
# wall clock.
bench:
	$(GO) test -run '^$$' -bench . -benchmem \
		./internal/cluster/... ./internal/geo/... ./internal/mobility/... \
		./internal/estimate/... ./internal/experiment/...
	$(GO) run ./cmd/adfbench -hotpath -duration 300 -seed 1 \
		-scales 140,1k,5k,20k,50k,200k,1m

# Measure the observability layer's overhead (disabled vs enabled
# hot-path throughput at each scale) and regenerate BENCH_obs.json; the
# committed number must stay within the 5% budget.
bench-obs:
	$(GO) run ./cmd/adfbench -obs-bench -duration 300 -seed 1

# Capture CPU and heap profiles of the tick loop in both partitions:
# the ~1k-node campus partition (BenchmarkTick1008MN, cpu.out/mem.out)
# and the 20k-node region partition on two shard workers
# (BenchmarkTickSharded20k at -cpu 2, cpu-sharded.out/mem-sharded.out),
# then CPU and heap profiles of the TCP RTI path (BenchmarkRTILockstep at
# -cpu 2, cpu-rti.out/mem-rti.out) and of one seed's paper campaign
# (BenchmarkCampaign140MN at -cpu 2, cpu-campaign.out/mem-campaign.out),
# where advance, collect, classify and cluster run once per seed, on the
# world stage, beside the four lane stages.
# Inspect with `go tool pprof cpu.out` and so on.
profile:
	$(GO) test -run '^$$' -bench 'BenchmarkTick1008MN$$' -cpuprofile cpu.out -memprofile mem.out ./internal/experiment
	$(GO) test -run '^$$' -bench 'BenchmarkTickSharded20k$$' -cpu 2 -cpuprofile cpu-sharded.out -memprofile mem-sharded.out ./internal/experiment
	$(GO) test -run '^$$' -bench 'BenchmarkRTILockstep$$' -cpu 2 -cpuprofile cpu-rti.out -memprofile mem-rti.out ./internal/hla
	$(GO) test -run '^$$' -bench 'BenchmarkCampaign140MN$$' -cpu 2 -cpuprofile cpu-campaign.out -memprofile mem-campaign.out ./internal/experiment
	@echo "wrote cpu.out, mem.out, cpu-sharded.out, mem-sharded.out, cpu-rti.out, mem-rti.out, cpu-campaign.out and mem-campaign.out; inspect with: go tool pprof cpu.out"
