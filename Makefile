GO ?= go

.PHONY: build test vet lint lint-sarif lint-fix-check lint-lock race race-core check check-sharded obs-check check-obs-e2e bench-smoke bench-regress ci bench-runner bench bench-obs profile

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

# adflint is the project's own static-analysis pass (internal/lint):
# the determinism, maporder, hotpath (call-graph aware), exhaustive,
# floatcmp, invariant, shardsafe, streamowner, adflock (guardedby,
# lockorder, goroleak, netctx) and allowaudit rules. Two passes — bare
# and with the adfcheck tag — so both halves of every sanitizer file
# pair are analyzed. The shipped tree must lint clean; any violation
# exits non-zero and fails ci.
lint:
	$(GO) run ./cmd/adflint
	$(GO) run ./cmd/adflint -tags adfcheck

# lint-sarif is the lint pass for CI's code-scanning upload: the same
# two tag passes, each also writing a SARIF v2.1.0 report (written even
# when clean, so fixed findings are resolved upstream).
lint-sarif:
	$(GO) run ./cmd/adflint -sarif adflint.sarif
	$(GO) run ./cmd/adflint -tags adfcheck -sarif adflint-adfcheck.sarif

# lint-fix-check asserts the suppression inventory is healthy: the
# allowaudit rule alone, under both tag sets, must report zero stale or
# reason-less //adf:allow comments. Run after deleting code near an
# allow to confirm the suppression went with it.
lint-fix-check:
	$(GO) run ./cmd/adflint -rules allowaudit
	$(GO) run ./cmd/adflint -rules allowaudit -tags adfcheck

# lint-lock runs just the adflock concurrency rules — guarded-by
# discipline, lock-order cycles, goroutine lifecycle, net deadlines —
# under both tag sets. A fast pre-flight when touching the served layer
# (internal/hla, internal/obs, cmd/rtiserver); `make lint` covers the
# same rules as part of the full pass.
lint-lock:
	$(GO) run ./cmd/adflint -rules guardedby,lockorder,goroleak,netctx
	$(GO) run ./cmd/adflint -rules guardedby,lockorder,goroleak,netctx -tags adfcheck

# Run the whole module under the race detector.
race:
	$(GO) test -race ./...

# Fast alias covering just the concurrency-bearing engine and campaign
# layers (the old `make race` scope), for quick iteration.
race-core:
	$(GO) test -race ./internal/engine/... ./internal/experiment/...

# check runs tier-1 under the adfcheck runtime sanitizer: the full test
# suite with every //adf:invariant guard armed, then the sequential-vs-
# parallel state-digest comparison with the mobility pool enabled. Any
# NaN, escaped position, drifted cluster statistic, DTH below the floor
# or clock regression panics with file:line.
check:
	$(GO) test -tags adfcheck ./...
	$(GO) run -tags adfcheck ./cmd/adfbench -sanitize -duration 120 -mobility-workers 4

# check-sharded is the region-sharded determinism gate: the sharded
# pipeline runs the ADF scenario at 1 (the sequential sharded
# reference), 4 and NumCPU shard workers in tick lockstep for 120 ticks
# with every adfcheck invariant armed, and the per-tick state digests —
# node positions, broker beliefs, shard membership, per-shard cluster
# statistics — must be bit-identical across all worker counts. The race
# detector rides along so the same run also proves the shard fan-out is
# data-race free. The second pass repeats the gate in keyed RNG mode
# with node churn on, so the counter-based draw sites and the geometric
# churn timeline are held to the same bit-identity bar.
check-sharded:
	$(GO) run -race -tags adfcheck ./cmd/adfbench -shard-digest -duration 120
	$(GO) run -race -tags adfcheck ./cmd/adfbench -shard-digest -duration 120 -rng keyed -churn 0.02,0.3

# obs-check is the observability gate: the end-to-end smoke test (full
# run with obs enabled; Chrome trace must parse as JSON, the registry
# must account the run, event lines must be valid NDJSON) under the race
# detector, plus the obs unit suite and one live /metrics scrape through
# the HTTP handler.
obs-check:
	$(GO) test -race -run 'TestObsSmoke|TestZeroAllocTick' ./internal/experiment/
	$(GO) test -race ./internal/obs/

# check-obs-e2e is the cross-process tracing gate: a real rtiserver and
# two adffed federates (sender and receiver) run over TCP with tracing
# on, adfobs merges the three per-process Chrome traces on one aligned
# timeline, and at least 99% of the sender's LU origin spans must link
# to a receiver-side delivery span by trace ID. Set ADFOBS_E2E_OUT to
# keep the merged trace (CI uploads it as an artifact).
check-obs-e2e:
	ADF_OBS_E2E=1 $(GO) test -run TestObsE2E -count=1 ./cmd/adfobs

# bench-smoke is the perf-regression gate: a short hot-path run at the
# ~5k-node scale under both RNG modes that fails if the steady-state
# (post-warmup) allocation rate of the tick pipeline rises above 2
# allocs/tick — the pinned budget the optimized pipeline holds with
# double-digit headroom (the recorded number is 0). Throughput is not
# gated (CI machines vary); the allocation floor is machine-independent.
# The second step runs the TCP RTI lockstep microbenchmark (one sender,
# 1 and 4 receivers, 405 LUs per step) for 20 steps each, reporting
# ns/LU and allocs/LU, so a transport change that breaks the loopback
# round trip or its fan-out fails here. The last step runs the error
# summary microbenchmark once (2M samples, 60% exact zeros: record, then
# publish P50/P90/P99/Max), reporting ns/op and B/op.
bench-smoke:
	$(GO) run ./cmd/adfbench -hotpath -duration 120 -seed 1 -scales 5k \
		-alloc-budget 2 -hotpath-out /dev/null
	$(GO) test -run '^$$' -bench BenchmarkRTILockstep -benchtime 20x ./internal/hla
	$(GO) test -run '^$$' -bench BenchmarkSummaryPercentiles -benchtime 1x ./internal/metrics

# bench-regress re-measures the CI-sized scale points of the committed
# BENCH_hotpath.json and BENCH_obs.json baselines under their own
# recorded protocol and fails on throughput (when the CPU configuration
# matches the baseline's), allocation-floor or obs-overhead regressions.
# See cmd/adfbench/regress.go for the noise bands.
bench-regress:
	$(GO) run ./cmd/adfbench -regress

# ci builds with -trimpath so artifacts are reproducible regardless of
# the checkout location.
ci: export GOFLAGS += -trimpath
ci: build vet lint lint-lock test race obs-check check-obs-e2e check-sharded bench-smoke bench-regress

# Benchmark the campaign runner (sequential vs parallel figure
# regeneration) and write BENCH_runner.json.
bench-runner:
	$(GO) run ./cmd/adfbench -json

# Run the hot-path microbenchmarks (cluster assignment, geometry, tick
# loop) and regenerate BENCH_hotpath.json at the baseline protocol
# (duration 300, seed 1) so the speedup columns are populated. Both RNG
# modes are measured at every scale up to a million nodes; the 200k and
# 1m points dominate the wall clock (~20 minutes total on one CPU).
bench:
	$(GO) test -run '^$$' -bench . -benchmem \
		./internal/cluster/... ./internal/geo/... ./internal/experiment/...
	$(GO) run ./cmd/adfbench -hotpath -duration 300 -seed 1 \
		-scales 140,1k,5k,20k,50k,200k,1m

# Measure the observability layer's overhead (disabled vs enabled
# hot-path throughput at each scale) and regenerate BENCH_obs.json; the
# committed number must stay within the 5% budget.
bench-obs:
	$(GO) run ./cmd/adfbench -obs-bench -duration 300 -seed 1

# Capture CPU and heap profiles of a ~1k-node run; inspect with
# `go tool pprof cpu.out` / `go tool pprof mem.out`.
profile:
	$(GO) run ./cmd/adfbench -hotpath -duration 300 -seed 1 \
		-hotpath-out /dev/null -cpuprofile cpu.out -memprofile mem.out
	@echo "wrote cpu.out and mem.out; inspect with: go tool pprof cpu.out"
