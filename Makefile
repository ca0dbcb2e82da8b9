GO ?= go

.PHONY: all build vet test race fmt lint lint-report faults crash torture fuzz-smoke cover perfgate ci bench-reports bench-async

all: ci

build:
	$(GO) build ./...
	$(GO) build -tags aqdebug ./...

vet:
	$(GO) vet ./...

# -shuffle=on randomizes test (and subtest) execution order per run so
# hidden order dependencies surface in CI instead of on a contributor's
# machine; every test builds its own engine/world, so none may rely on
# state a sibling left behind.
test:
	$(GO) test -shuffle=on ./...

# The observability layer (tracer, registry, profiler, perf gate) shares
# data across goroutines, and the background evictor daemons run as extra
# procs inside the simulated worlds; keep both race-clean. The profile and
# perfgate subpackages are covered by the ./internal/obs/... pattern.
# internal/sim/mem holds the buddy frame allocator the 2 MB path leans on.
# internal/sim/engine hands the baton between proc goroutines, and Close
# unwinds parked daemons across it.
race:
	$(GO) test -race ./internal/obs/... ./internal/core/... ./internal/sim/mem/... ./internal/sim/engine/...

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Aquila's own static-analysis suite (DESIGN.md "Static invariants"):
# determinism, cycle accounting, span pairing, typed-I/O-error propagation,
# and the flow-aware durability/crash-unwind/huge-page invariants. `go vet`
# runs first for the generic mistakes, then aqlint sweeps both build-tag
# variants: the aqdebug tree compiles different core files and must uphold
# the same invariants.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/aqlint ./...
	$(GO) run ./cmd/aqlint -tags aqdebug ./...

# Machine-readable findings archive for CI artifacts: aqlint -json emits the
# findings, suppression count, and package census even when the tree is
# clean. The report is scratch output, not a golden.
lint-report:
	$(GO) run ./cmd/aqlint -json ./... > aqlint-report.json || true
	$(GO) run ./cmd/aqlint -json -tags aqdebug ./... > aqlint-report-aqdebug.json || true
	@echo "wrote aqlint-report.json aqlint-report-aqdebug.json"

# The fault-injection suite end to end under the race detector: device fault
# plans, retry/requeue/quarantine, errseq msync, SIGBUS delivery, io_uring
# error completions, and fault-plan determinism.
faults:
	$(GO) test -race -run 'Fault|SigBus|Msync|Quarantin|Poison|IOURingInjected' \
		./internal/sim/device/ ./internal/core/ ./internal/host/

# The crash-consistency suite end to end under the race detector: durability
# model + torn sectors, crash-point injection and determinism, durable-image
# capture/recovery, errseq across restart, Kreon CRC replay, the io_uring
# in-flight drain, and the msync durability-point pin (DESIGN.md §9).
crash:
	$(GO) test -race -run 'Crash|Recover|Durab|TornSector|CrashPlan' \
		. ./internal/sim/device/ ./internal/sim/engine/ ./internal/core/ \
		./internal/host/ ./internal/kvs/kreon/

# Torture harness (DESIGN.md §10): the fixed 64-seed bank across all
# world × device × fault × crash × schedule combinations, each seed run
# twice (-dup) to prove fingerprint determinism, failures auto-shrunk to
# repros under internal/torture/testdata/repros/. -prove-unsafe first: the
# planted UnsafeMsyncAtSubmit bug must be caught, or the battery is vacuous.
torture:
	$(GO) run ./cmd/aqtort -prove-unsafe -bank 64 -dup -shrink

# Short native-fuzz smoke: a few seconds of FuzzKreonRecover per CI run.
# The corpus (internal/kvs/testdata + the cached interesting inputs) still
# replays in plain `make test`; this target actually mutates.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzKreonRecover -fuzztime 10s ./internal/kvs/kreon/

# Per-function coverage report for the mmio core (scratch output, not a
# golden): `make cover` prints the table and leaves core-cover.out for
# `go tool cover -html`.
cover:
	$(GO) test -coverprofile=core-cover.out ./internal/core/
	$(GO) tool cover -func=core-cover.out

# Performance-regression gate: re-run the report-backed experiments into a
# scratch directory and diff every BENCH_*.json against the checked-in
# goldens, exactly to the cycle. Fails on any drift; regenerate the goldens
# with `make bench-reports` when a change is intentional. Each gated run is
# appended to the BENCH_history.jsonl trajectory.
perfgate:
	rm -rf .perfgate && mkdir -p .perfgate
	$(GO) run ./cmd/aquila-bench -exp fig8a,fig7,fig5b,fig10a,ablate-hugepages,ablate-crash -report-dir .perfgate > /dev/null
	$(GO) run ./cmd/aqperf -goldens . -dir .perfgate -history BENCH_history.jsonl -label local

ci: build vet fmt lint test race faults crash fuzz-smoke torture perfgate

# Regenerate the checked-in machine-readable experiment reports.
bench-reports:
	$(GO) run ./cmd/aquila-bench -exp fig8a,fig7,fig5b,fig10a,ablate-hugepages,ablate-crash -report-dir .

# Background-eviction comparison: fig5b's sync-vs-async rows plus the
# watermark-sweep ablation.
bench-async:
	$(GO) run ./cmd/aquila-bench -exp fig5b,ablate-async-evict
