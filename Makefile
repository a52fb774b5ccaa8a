GO ?= go

.PHONY: all build vet test race bench bench-smoke bench-json bench-compare bench-harness-check chaos serve-smoke overload-smoke metrics-smoke diff-smoke fuzz-smoke lint-metrics loc ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One iteration per benchmark: checks every bench still runs, not perf.
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# Cheap hot-path sanity: the headline engine benchmark must run (and its
# allocs/op column stay visible) without paying for a full perf run.
bench-smoke:
	$(GO) test -bench 'BenchmarkEngineMatchRequest' -benchtime 100x \
		-benchmem -run '^$$' .

# Persist the perf trajectory: run the engine + decision benchmarks with
# real benchtime and record name → ns/op, allocs/op, matches/sec as JSON
# so regressions are diffable across PRs.
bench-json:
	$(GO) test -bench 'BenchmarkEngine|BenchmarkProfile|BenchmarkAblationUnifiedIndex|BenchmarkAblationKeywordIndex|BenchmarkAblationInstrumentation|BenchmarkAblationFingerprint|BenchmarkAblationDomainTrie|BenchmarkDecisionCache|BenchmarkSnapshot|BenchmarkNewRequest|BenchmarkRequestIndexSide|BenchmarkServeBatchHit' \
		-benchtime 1s -benchmem -run '^$$' . \
		| $(GO) run ./cmd/aa-benchjson > BENCH_engine.json
	@echo wrote BENCH_engine.json

# The perf gate: re-run the pinned hot-path benchmarks and diff them
# against the committed baseline. Fails when a pinned benchmark regresses
# more than 15% ns/op or a zero-allocation pin starts allocating.
# Regenerate the baseline with `make bench-json` when a PR moves the
# numbers on purpose.
bench-compare:
	$(GO) test -bench 'BenchmarkEngineMatchRequest|BenchmarkDecisionCacheOn' \
		-benchtime 1s -benchmem -run '^$$' . \
		| $(GO) run ./cmd/aa-benchjson > /tmp/aa-bench-new.json
	$(GO) run ./cmd/aa-benchjson -compare BENCH_engine.json /tmp/aa-bench-new.json

# The service benchmark under bench/ is a module of its own, so the root
# build never compiles it and an internal API drift would only surface as
# a failed benchmark run. Vet, build and test it here (its tests start no
# child process). The binary is discarded: building the module's one main
# package in place would try to write "aa-bench" over its own directory.
bench-harness-check:
	cd bench && $(GO) vet ./... && $(GO) build -o /dev/null ./... && $(GO) test ./...

# A small survey under the race detector with 20% fault injection: the
# crawl must complete with partial results and report per-class fault,
# retry and breaker telemetry instead of aborting.
chaos:
	$(GO) run -race ./cmd/aa-survey -top 50 -stratum 20 \
		-fault-rate 0.2 -fault-seed 7 -page-timeout 2s \
		-max-retries 3 -error-budget 0.5 -summary

# End-to-end check of the decision service: aa-serve's lifecycle runs
# against the testdata lists on a loopback listener, every endpoint is
# exercised through api.Client, then a SIGTERM must flip /readyz to 503
# and drain cleanly. Under the race detector.
serve-smoke:
	$(GO) test -race -run '^TestServeSmoke$$' -count=1 -v ./cmd/aa-serve

# Overload acceptance: the same lifecycle under a tiny admission limit
# (capacity 2, queue 2), hammered past the concurrency limit under the
# race detector. The run must show real 429s with Retry-After, no 5xx, at
# least one admitted heavyweight batch, and /readyz flipping to 503
# during the SIGTERM drain.
overload-smoke:
	$(GO) test -race -run '^TestServeOverload$$' -count=1 -v ./cmd/aa-serve

# Prometheus exposition check: start the serve stack, scrape /metrics,
# validate the text format with the parser in cmd/aa-serve's tests, and
# assert the per-list attribution counters increase after a match.
metrics-smoke:
	$(GO) test -race -run 'TestMetricsSmoke|TestMetricsParserRejectsGarbage' \
		-count=1 -v ./cmd/aa-serve

# Differential-serving acceptance: one request evaluated under two
# profiles (easylist-only vs full) must flip verdicts, and /v1/diff must
# attribute the flip to the responsible exception filter by list and
# line. Runs under the race detector against the smoke testdata.
diff-smoke:
	$(GO) test -race -run 'TestProfileDiffSmoke|TestUnknownProfileIs400|TestParseProfiles' \
		-count=1 -v ./cmd/aa-serve

# Two short fuzz runs. Snapshot decoder: truncated, bit-flipped and
# version-skewed snapshot bytes must produce errors, never a panic or a
# half-built engine; the committed corpus seeds cover each section and ten
# seconds of mutation on top catches format-change regressions cheaply.
# Request validation: NewRequest's parse-free recogniser may only accept
# what url.Parse accepts with a host, and NewRequest's accept/reject set
# must equal the parse rule on every input.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzSnapshotDecode -fuzztime 10s \
		./internal/engine/snapbin
	$(GO) test -run '^$$' -fuzz FuzzNewRequestValidation -fuzztime 10s \
		./internal/engine

# Size report: non-test Go lines and exported declarations (top-level
# funcs, methods and types) of the serving stack's packages — the numbers a
# simplification is measured by. Plain shell, nothing to build.
LOC_PKGS = internal/engine internal/engine/snapbin internal/decision \
	internal/decision/api cmd/aa-serve
loc:
	@for d in $(LOC_PKGS); do \
		files=$$(ls $$d/*.go | grep -v '_test\.go$$'); \
		printf '%-26s %6d lines %4d exported\n' $$d \
			$$(cat $$files | wc -l) \
			$$(cat $$files | grep -cE '^func (\([^)]*\) )?[A-Z]|^type [A-Z]'); \
	done

# Metric-name hygiene: every metric registered in obs.Registry must be
# lowercase dot.separated and unique across the tree.
lint-metrics:
	$(GO) run ./cmd/aa-lint -metrics -metrics-root .

# The pre-merge gate: static checks, a clean build, the full suite under
# the race detector, a smoke pass over every benchmark plus the hot-path
# allocation smoke, the perf gate against the committed baseline, the
# benchmark harness module's own vet/build/test, two short fuzz runs, and
# the chaos and decision-service smoke runs.
ci: vet lint-metrics build race bench bench-smoke bench-compare bench-harness-check fuzz-smoke chaos serve-smoke overload-smoke metrics-smoke diff-smoke
