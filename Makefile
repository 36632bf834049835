GO ?= go

.PHONY: build test shorttest coretest racetest vet lint benchtest perfpin docscheck metricscheck fuzzsmoke crashtest

build:
	$(GO) build ./...

test:
	$(GO) test ./...

shorttest:
	$(GO) test -short ./...

# The simulator core's tests without -short: -short skips the chunked-
# stepping bit-identity tests (TestSessionChunkedBitIdentity,
# TestReplaySessionMatchesRun), so this is the run that proves event-
# horizon stepping reproduces Run in any chunking. It also runs every
# package with a component reset that machine reuse relies on, and their
# TestResetMatchesNew. Mirrors the CI "Test simulator core (full)" step.
coretest:
	$(GO) test -count=1 ./internal/sim ./internal/pipeline ./internal/cmp ./internal/mem ./internal/policy \
		./internal/cache ./internal/branch ./internal/synth ./internal/stats ./internal/bus

# The end-to-end benchmark (bench/mflushperf) is its own Go module, so
# the root `go test ./...` never builds it; vet and test it in place so
# a change to the sim/campaign/cluster/server API it drives is caught
# (mirrors the CI benchtest job).
benchtest:
	cd bench/mflushperf && $(GO) vet ./... && $(GO) test ./...

# Full-size output pin: run every mflushperf workload briefly at seed 1
# and fail if any reports a failed operation. A seed-1 run checks its
# outputs digest against bench/mflushperf/expected.json and counts every
# operation failed on a mismatch, so this catches a speed change that
# drifts full-size simulation output, which benchtest's toy-scale runs
# cannot. Mirrors the CI perfpin job (~1 min).
PERF_WORKLOADS := solo-mem solo-ilp sweep-gang service

perfpin:
	@for w in $(PERF_WORKLOADS); do \
		out=$$(bash bench/mflushperf/run.sh --workload $$w --seed 1 --seconds 2 --trace 0) || { \
			printf '%s\n' "$$out"; echo "perfpin: $$w exited non-zero"; exit 1; }; \
		case "$$(printf '%s\n' "$$out" | tail -n 1)" in \
		*'"failed":0,'*) echo "perfpin: $$w ok";; \
		*) printf '%s\n' "$$out"; echo "perfpin: $$w reported failed operations"; exit 1;; \
		esac; \
	done

# Race-checks the campaign scheduler, the daemon's submit/cancel/SSE
# churn and the cluster coordinator/worker concurrency (mirrors the CI
# race job, which runs all of these on every push).
racetest:
	$(GO) test -race -short ./...

# Fuzz smoke: run each native fuzz target briefly (the seed corpora are
# also exercised as plain tests on every `make test`). Mirrors the CI
# fuzz job.
fuzzsmoke:
	$(GO) test -run '^$$' -fuzz FuzzParseSpec -fuzztime 10s ./internal/sim
	$(GO) test -run '^$$' -fuzz FuzzMachineReuse -fuzztime 10s ./internal/sim
	$(GO) test -run '^$$' -fuzz FuzzReadSpec -fuzztime 10s ./internal/campaign
	$(GO) test -run '^$$' -fuzz FuzzWALReplay -fuzztime 10s ./internal/cluster
	$(GO) test -run '^$$' -fuzz FuzzScenarioBinary -fuzztime 10s ./internal/trace
	$(GO) test -run '^$$' -fuzz FuzzScenarioJSONL -fuzztime 10s ./internal/trace
	$(GO) test -run '^$$' -fuzz FuzzCacheLRU -fuzztime 10s ./internal/cache
	$(GO) test -run '^$$' -fuzz FuzzTLB -fuzztime 10s ./internal/cache
	$(GO) test -run '^$$' -fuzz FuzzSleep -fuzztime 10s ./internal/cmp
	$(GO) test -run '^$$' -fuzz FuzzWindow -fuzztime 10s ./internal/pipeline
	$(GO) test -run '^$$' -fuzz FuzzPolicy -fuzztime 10s ./internal/policy

# Crash matrix: build the real mflushd with fault injection compiled in
# (-tags faultpoint), SIGKILL it at each WAL/lease faultpoint mid-
# campaign, restart on the same state directory, and require the resumed
# run to converge byte-identically. Also unit-tests the faultpoint
# package itself, which is a no-op without the tag.
crashtest:
	$(GO) test -tags faultpoint ./internal/faultpoint
	$(GO) test -tags faultpoint -count=1 ./internal/crashtest

vet:
	$(GO) vet ./...

# Project lint: the five custom analyzers (determinism, hotpath,
# keyhash, lockorder, errwrap) plus the //mflush: annotation self-check,
# with stock `go vet` folded in — so this is a superset of `make vet`
# and the one lint entry point CI runs. See ARCHITECTURE.md "Static
# analysis" for what each analyzer enforces.
lint:
	$(GO) run ./cmd/mflushvet ./...

# Documentation checks: markdown links in README/CAMPAIGNS/ARCHITECTURE/
# API resolve, every Test/Fuzz/Benchmark name they cite exists, every
# markdown file a Go comment names exists, and every exported identifier
# in internal/server and internal/campaign has a doc comment (mirrors
# the CI docs job).
docscheck:
	$(GO) test ./internal/docs/

# Metrics naming and documentation lint: every metric any binary
# registers is strict snake_case with the mflush_ prefix and appears in
# API.md's Observability tables (and vice versa). Also part of
# docscheck; this target runs just the metric lint.
metricscheck:
	$(GO) test -run TestMetricNamesConform ./internal/docs/
