GO ?= go

# Benchmarks RUN by `make bench-gate`: the refutation and batch-checking hot
# paths this repository optimizes. ralin-benchdiff's default -match then
# gates only their scheduling-independent variants (searches, which run on
# one goroutine each, and single-worker batches) — the multi-worker batch
# variants are measured and reported but would gate on the host's core
# count, not the code. The
# gate fails on a >1% allocs/op increase and (same-CPU runs, NS_THRESHOLD>0)
# on a >$(NS_THRESHOLD)% ns/op regression vs the committed BENCH_results.json.
# On top of the relative diffs, ZERO_ALLOC_PATTERN is an absolute assertion:
# the warm-session re-check steady state must report exactly 0 allocs/op,
# baseline regardless, so a reintroduced per-check allocation fails the gate
# even if the committed baseline carried it too.
BENCH_GATE_PATTERN = BenchmarkEngineNonLinearizable|BenchmarkEngineWideRefutation|BenchmarkBatchCheckRandomHistories|BenchmarkBatchRefutations|BenchmarkSessionRecheck|BenchmarkScenarioCorpus|BenchmarkGuidedVsRankOrder|BenchmarkIncrementalExtend|BenchmarkStrategyValidation
NS_THRESHOLD ?= 25
ZERO_ALLOC_PATTERN = ^BenchmarkSessionRecheck/session\b
# NS_BASELINE optionally names a second, same-runner baseline JSON (the CI
# cache regenerated on every merge to main): when set, bench-gate runs an
# additional ns/op-only diff against it with NS_BASELINE_THRESHOLD, so
# wall-clock regressions gate in CI even though the committed baseline's CPU
# string cannot be trusted across runner hardware.
NS_BASELINE ?=
NS_BASELINE_THRESHOLD ?= 25

.PHONY: build test bench bench-json bench-gate bench-ns-baseline scenarios lint lint-docs fmt

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# One pass over every benchmark, asserting the figure reproductions still
# match the paper (the CI smoke run).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The same pass with -benchmem, converted to machine-readable JSON. CI runs
# this and uploads BENCH_results.json as an artifact on every build, so the
# benchmark trajectory (ns/op, allocs/op, checks/refute, ...) accumulates
# over time. BENCH_results.json is also committed as the current baseline
# snapshot: running this target overwrites it on purpose — refresh it (and
# the BENCHMARKS.md tables) deliberately when an engine change moves the
# numbers, otherwise discard the local diff. The gated benchmarks are
# re-measured at 50 iterations and appended — ralin-benchdiff keeps the last
# occurrence per name, so the baseline the gate diffs against is a
# multi-iteration reading (a 1x ns/op sample is noisy enough to trip the
# same-machine 25% gate on its own; it also records session benchmarks
# cold). The intermediate text output is kept out of the tree.
bench-json:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 1x ./... > bench-raw.txt
	$(GO) test -run '^$$' -bench '$(BENCH_GATE_PATTERN)' -benchmem -benchtime 50x -count 1 . >> bench-raw.txt
	$(GO) run ./cmd/ralin-bench2json < bench-raw.txt > BENCH_results.json
	@rm -f bench-raw.txt
	@echo "wrote BENCH_results.json"

# The benchmark regression gate: re-run the gated benchmarks (several
# iterations so ns/op is not a single-sample reading) and diff them against
# the committed baseline. Run it BEFORE bench-json in any pipeline — the
# bench-json target overwrites BENCH_results.json, which is the baseline this
# gate compares against. The temporary files are left behind on failure for
# inspection.
bench-gate:
	$(GO) test -run '^$$' -bench '$(BENCH_GATE_PATTERN)' -benchmem -benchtime 50x -count 1 . > bench-gate-raw.txt
	$(GO) run ./cmd/ralin-bench2json < bench-gate-raw.txt > bench-gate.json
	$(GO) run ./cmd/ralin-benchdiff -baseline BENCH_results.json -candidate bench-gate.json -max-ns-regression $(NS_THRESHOLD) -max-allocs-regression 1 -assert-zero-allocs '$(ZERO_ALLOC_PATTERN)'
	@if [ -n "$(NS_BASELINE)" ]; then \
		echo "ns/op gate against same-runner baseline $(NS_BASELINE):"; \
		$(GO) run ./cmd/ralin-benchdiff -baseline "$(NS_BASELINE)" -candidate bench-gate.json -max-ns-regression $(NS_BASELINE_THRESHOLD) -max-allocs-regression -1; \
	fi
	@rm -f bench-gate-raw.txt bench-gate.json

# One 50x run of the gated benchmarks converted to JSON, written to
# bench-ns-baseline.json: the same-runner ns/op baseline CI regenerates and
# caches on every merge to main (see .github/workflows/ci.yml), and that PR
# builds gate against via NS_BASELINE.
bench-ns-baseline:
	$(GO) test -run '^$$' -bench '$(BENCH_GATE_PATTERN)' -benchmem -benchtime 50x -count 1 . > bench-ns-raw.txt
	$(GO) run ./cmd/ralin-bench2json < bench-ns-raw.txt > bench-ns-baseline.json
	@rm -f bench-ns-raw.txt
	@echo "wrote bench-ns-baseline.json"

# Re-harvest the committed scenario corpus (testdata/corpus/): run every
# named fault-schedule scenario for 40 trials and keep the 2 most interesting
# histories each (refutations first, then highest node count). The harvest is
# deterministic for a fixed seed, so this only changes the tree when the
# scenario library or the workload generators change — review the diff before
# committing, since corpus_test.go and BenchmarkScenarioCorpus replay these
# files as a regression set.
scenarios:
	$(GO) run ./cmd/ralin-scenario -all -harvest testdata/corpus -trials 40 -keep 2

lint:
	$(GO) vet ./...
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipped (CI runs the pinned version)"; \
	fi
	$(MAKE) lint-docs

# The documentation gates (dependency-free, stdlib-only scripts): every
# exported symbol of the engine packages carries a doc comment, and every
# intra-repo markdown link resolves. CI runs both (the docs job runs mdlinks).
lint-docs:
	$(GO) run ./scripts/lintgodoc ./internal/search ./internal/core
	$(GO) run ./scripts/mdlinks .

fmt:
	gofmt -w .
