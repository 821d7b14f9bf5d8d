# GPUSimPow reproduction — build/test/benchmark entry points.
#
# `make ci` is the gate every change must pass: vet, the repo-specific
# lints, build, and the full test suite under the race detector
# (load-bearing since the experiment sweeps fan out over
# internal/runner's worker pool).

GO ?= go

.PHONY: ci vet lint build test race bench bench-sim baseline bench-compare ci-bench ci-service ci-restart ci-fleet fmt-check golden-update profile

ci: fmt-check vet lint build race ci-bench ci-service ci-restart ci-fleet

vet:
	$(GO) vet ./...

# Repo-specific static analysis (cmd/gpowlint): the determinism and
# cache-partition invariants go vet cannot see — timing-key coverage,
# map-iteration order, wall-clock reads, wire-struct json tags, faultpoint
# name drift. See docs/LINTS.md.
lint:
	$(GO) run ./cmd/gpowlint

# gofmt gate: any file gofmt would rewrite fails CI.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt -l flagged:"; echo "$$out"; exit 1; fi

# Service smoke: start gpowd on a loopback port, run the cheapest sweep
# scenario in-process and through the daemon, diff the NDJSON cell
# records AND the reduced report (JSON + rendered text) byte for byte
# (see scripts/service_smoke.sh).
ci-service:
	./scripts/service_smoke.sh

# Crash/restart drill: kill gpowd mid-job via the
# crash-after-journal-append faultpoint, restart it on the same state
# dir, and diff the self-healing client's resumed output and the
# recovered job's report byte for byte against an uninterrupted run
# (see scripts/service_restart.sh).
ci-restart:
	./scripts/service_restart.sh

# Fleet chaos drill: run 2 gpowd backends behind gpowfleet, kill the
# job's ring-owner backend mid-run via faultpoint, and prove the riding
# client's NDJSON and the failed-over job's report match an
# uninterrupted single-node run byte for byte; then drain a backend and
# prove it takes no new work while still serving its existing jobs
# (see scripts/fleet_drill.sh, docs/FLEET.md).
ci-fleet:
	./scripts/fleet_drill.sh

# The scenario golden files (internal/experiments/testdata/*.golden) pin
# every scenario's rendered report byte-identical to the pre-split
# printers; they run as part of `make race`/`make test`. Regenerate after
# an intentional output change:
golden-update:
	$(GO) test ./internal/experiments -run TestGoldenReports -update

# Profile one scenario run end to end with the gpowexp pprof flags:
#   make profile SCENARIO=fig6a
# then `go tool pprof cpu.prof` / `go tool pprof mem.prof`.
SCENARIO ?= fig6a
profile:
	$(GO) run ./cmd/gpowexp run $(SCENARIO) -cpuprofile cpu.prof -memprofile mem.prof

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Quick benchmark pass over the whole harness (one iteration each).
bench:
	$(GO) test -bench=. -benchtime=1x -benchmem -run=NONE .

# Repeatable simulator timings: every BenchmarkSim* row ten times, for
# medians (docs/PERFORMANCE.md §4 reports them).
bench-sim:
	$(GO) test -bench='^BenchmarkSim' -benchmem -count=10 -run=NONE .

# Regenerate BENCH_BASELINE.json (see docs/PERFORMANCE.md).
baseline:
	./scripts/bench_baseline.sh

# Diff two benchmark snapshots: custom-metric drift (must be zero) is
# flagged separately from timing/allocation drift, and fails the target.
#   make bench-compare OLD=BENCH_BASELINE.json NEW=BENCH_NEW.json
bench-compare:
	$(GO) run ./scripts/benchjson -compare $(OLD) $(NEW)

# CI gate on the committed baseline: run the benchmark harness once and
# compare against BENCH_BASELINE.json. Custom metrics are deterministic
# reproduced model quantities — any drift fails; timing and allocation
# deltas are host-dependent and only warn (benchjson prints them as
# informational).
ci-bench:
	@tmp=$$(mktemp) && trap 'rm -f "$$tmp" "$$tmp.json"' EXIT && \
	$(GO) test -bench=. -benchtime=1x -benchmem -run=NONE -json . > "$$tmp" && \
	$(GO) run ./scripts/benchjson < "$$tmp" > "$$tmp.json" && \
	$(GO) run ./scripts/benchjson -compare BENCH_BASELINE.json "$$tmp.json"
