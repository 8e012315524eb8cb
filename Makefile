# Tier-1 gate: `make ci` must stay green on every PR.
GO ?= go

# Coverage ratchet: ./internal/... statement coverage must stay at or above
# this floor. Raise it when coverage rises; never lower it to make a PR pass.
COVER_FLOOR ?= 85.0

.PHONY: ci fmt vet build test race perfbench analyze fuzz-smoke bench-smoke bench-check cover bench bench-shard test-shard experiments e15-artifact results-gate

ci: fmt vet build test race perfbench test-shard analyze fuzz-smoke bench-smoke bench-check

# Every Go file, the nested perfbench module included, must be gofmt-clean.
fmt:
	test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# perfbench/ is a nested module, so the root ./... patterns above never
# compile it; this keeps an API the benchmark calls from being deleted
# unnoticed.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Focused sharded-kernel suite under the race detector: the conservative
# protocol's ownership rules (stage-then-merge, owner-goroutine-only appends)
# are exactly what -race can falsify. The full-suite bit-identity tests also
# run under `race` above; this target is the quick standalone entry point.
test-shard:
	$(GO) test -race -run 'Shard|Grouped' ./internal/sim/ ./internal/topo/ ./internal/cots/ ./internal/hifi/
	$(GO) test -race -run 'TestE14Shape|TestE15ShardInvariant' ./internal/experiments/

# Project-specific static analysis: simulation determinism, BER/SNMP error
# discipline, timer leaks, locks held across yield points, map-order
# determinism, and the //perf:noalloc escape gate (see DESIGN.md §8). Writes
# the machine-readable findings to analyze_diags.json for CI to archive.
analyze:
	$(GO) run ./cmd/analyze -json analyze_diags.json ./...

# A few seconds of coverage-guided fuzzing per target — enough to
# exercise the checked-in corpora plus a short exploration burst.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzBERRoundTrip$$' -fuzztime 3s ./internal/asn1ber
	$(GO) test -run '^$$' -fuzz '^FuzzMessageRoundTrip$$' -fuzztime 3s ./internal/snmp
	$(GO) test -run '^$$' -fuzz '^FuzzSketchInvariants$$' -fuzztime 3s ./internal/sketch
	$(GO) test -run '^$$' -fuzz '^FuzzTrapCoalesce$$' -fuzztime 3s ./internal/director

# One iteration of every benchmark, package by package, failing loudly per
# broken package (see scripts/bench_smoke.sh).
bench-smoke:
	scripts/bench_smoke.sh

# Perf-regression gate: re-run the kernel/database micro-benchmarks and fail
# if any ns/op regresses more than 25% against the committed baseline
# (BENCH_kernel.json). Writes the fresh run to BENCH_fresh.json.
bench-check:
	scripts/bench_compare.sh

# Statement coverage across ./internal/..., gated on COVER_FLOOR.
cover:
	$(GO) test -coverprofile=coverage.out ./internal/...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	echo "coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t + 0 >= f + 0) ? 0 : 1 }' || \
	{ echo "coverage $$total% fell below the $(COVER_FLOOR)% floor" >&2; exit 1; }

# Full measurement run; writes BENCH_kernel.json (see scripts/bench.sh).
bench:
	scripts/bench.sh

# Shard-count speedup sweep against the wall clock; writes BENCH_shard.json
# (see scripts/bench_shard.sh). Hardware-dependent by design — on a 1-CPU
# host expect speedup <= 1.
bench-shard:
	scripts/bench_shard.sh

experiments:
	$(GO) run ./cmd/experiments

# E15 accuracy/memory matrix as machine-readable JSON; CI uploads the file
# alongside BENCH_shard.json so the sketch-vs-exact trajectory is archived
# per PR like the perf numbers are.
e15-artifact:
	$(GO) run ./cmd/experiments -quick -json E15 > E15_sketch.json

# Scenario pass/fail gate over the durable results pipeline: runs the
# comparison scenarios with -results, verifies the tolerance tripwire
# actually trips, then holds hybrid-vs-hifi fidelity, resilience on/off
# detection latency, and 1-vs-8-shard bit-identity to their tolerances
# (see scripts/results_gate.sh and DESIGN.md §14). Artifacts in results/.
results-gate:
	scripts/results_gate.sh
