# FaaSnap-Go development targets. Pure Go, stdlib only.

GO ?= go

.PHONY: all check build vet test test-short test-race chaos gateway-e2e cas-smoke events-smoke bench-check bench-micro loc experiments figures fuzz clean

all: build vet test

# What CI runs: compile, vet, the benchmark module's own check, one
# pass of the kernel micro-benchmarks, then every test once without and
# once with the race detector. The named smokes below (chaos,
# gateway-e2e, cas-smoke, events-smoke) are subsets of those two test
# runs, for iterating on one area.
check: build vet bench-check bench-micro test test-race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./... -shuffle=on -timeout 1500s

test-short:
	$(GO) test ./... -short -timeout 600s

# The parallel experiment runner and daemon are exercised under the
# race detector; simulations are deterministic, so this is purely a
# concurrency-safety check. Both runs shuffle the test order (go test
# prints the seed), so a test that leans on another's leftovers fails.
test-race:
	$(GO) test -race ./... -shuffle=on -timeout 3000s

# The fault-injection matrix (RESILIENCE.md): chaos and resilience
# units plus the daemon failure-matrix and per-layer fault hooks, under
# the race detector. Chaos profiles are seeded in the tests themselves,
# so the injected fault sequences are fixed run to run.
chaos:
	$(GO) test -race -count=1 -timeout 900s \
		./internal/chaos/ ./internal/resilience/ ./internal/daemon/ \
		./internal/vmm/ ./internal/guestagent/ ./internal/pipenet/ \
		./internal/blockdev/ ./internal/snapfile/

# The multi-host serving-tier e2e (GATEWAY.md): three real daemons
# behind a faasnap-gw routing tier; one backend is killed mid-burst
# with chaos armed on another, and no client may ever see a 500.
gateway-e2e:
	$(GO) test -race -count=1 -run TestGatewayE2E ./internal/gateway/ -timeout 600s

# The chunk-store smoke (DESIGN.md, "Content-addressed chunk store"):
# unit-level store/chunking invariants, then the daemon-level flow —
# record two functions from a shared base image, assert the dedup is
# real, and restore them chunk-by-chunk onto daemons that never
# recorded them (loading set eager, tail lazy) across a 3-daemon chain,
# with GC honoring delete tombstones and corrupt chunks quarantining.
cas-smoke:
	$(GO) test -race -count=1 ./internal/casstore/ -timeout 300s
	$(GO) test -race -count=1 -run TestCAS ./internal/daemon/ -timeout 300s

# The event-ledger smoke (OBSERVABILITY.md, "Events & background-op
# tracing"): a repair sweep over real daemons must land in both the
# daemon and gateway ledgers, merge with origins on /cluster/events,
# and leave a restore trace the waterfall renderer can draw — plus the
# 3-daemon deficit→repair→converged causality chain.
events-smoke:
	$(GO) test -race -count=1 -run 'TestEventsSmoke|TestRepairCausalityChain' \
		./internal/gateway/ -timeout 60s

# The benchmark is a module of its own (benchmark/go.mod), which
# `./...` skips: vet and test it here, so a rename that breaks the
# surface it imports fails in seconds instead of in the benchmark
# driver.
bench-check:
	cd benchmark && $(GO) vet . && $(GO) test .

# One iteration of every Benchmark* function in the DES kernel, the
# processor-sharing CPU, the page cache, the gateway's placement and the
# daemon's chunk plane (record and eager sync): no timing is compared,
# but a benchmark that panics, hangs or no longer compiles fails here
# rather than when someone profiles.
bench-micro:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/sim ./internal/cpu ./internal/pagecache ./internal/gateway ./internal/daemon

# Go lines outside benchmark/, per package and in total — the number a
# simplification moves — for the non-test files, then for the _test.go
# files, each in two columns: every line, then code-only lines
# (non-blank and not a //-only line), so a real reduction can be told
# from deleted comments. `make loc BASE=<ref>` prints, per package and in
# total, both columns of <ref>'s tree (taken with `git archive`, nothing
# checked out), both of this tree's, and their difference.
GO_FILES = find . -name '*.go' ! -path './benchmark/*' ! -path './.bench_build/*'
COUNT_LINES = xargs awk '{ d = FILENAME; sub(/^\.\//, "", d); sub(/\/?[^\/]*$$/, "", d); if (d == "") d = "."; \
	n[d]++; t++; if ($$0 !~ /^[ \t]*($$|\/\/)/) { c[d]++; ct++ } } \
	END { for (d in n) printf "%6d %6d %s\n", n[d], c[d], d; printf "%6d %6d total\n", t, ct }'
LOC_COUNT = $(GO_FILES) ! -name '*_test.go' | $(COUNT_LINES)
TEST_COUNT = $(GO_FILES) -name '*_test.go' | $(COUNT_LINES)
# $(call LOC_DIFF,<count>) prints <count> over $$base and over this tree
# side by side, with the difference.
LOC_DIFF = printf '%13s  %13s  %13s\n' base tree difference && \
	{ (cd "$$base" && $(1)) | sed 's/^/base /'; $(1) | sed 's/^/tree /'; } \
	| awk '{ k = $$4; seen[k] = 1; if ($$1 == "base") { ba[k] = $$2; bc[k] = $$3 } else { ta[k] = $$2; tc[k] = $$3 } } \
	END { for (k in seen) printf "%6d %6d  %6d %6d  %+6d %+6d  %s\n", \
		ba[k], bc[k], ta[k], tc[k], ta[k] - ba[k], tc[k] - bc[k], k }' | sort -k7

loc:
ifeq ($(BASE),)
	@echo 'Non-test Go lines:' && $(LOC_COUNT) | sort -k3
	@echo '_test.go lines:' && $(TEST_COUNT) | sort -k3
else
	@base=$$(mktemp -d) && trap 'rm -rf "$$base"' EXIT && \
	git archive "$(BASE)" | tar -x -C "$$base" && \
	echo 'Non-test Go lines:' && $(call LOC_DIFF,$(LOC_COUNT)) && \
	echo '_test.go lines:' && $(call LOC_DIFF,$(TEST_COUNT))
endif

# Regenerate every paper table/figure (writes bench_results.txt; the
# wall-clock lines go to stderr, so an unchanged model reproduces the
# committed file byte for byte — CI diffs it).
experiments:
	$(GO) run ./cmd/faasnap-bench -exp all | tee bench_results.txt

# Figure SVGs for the plot-backed experiments.
figures:
	$(GO) run ./cmd/faasnap-bench -exp fig7,fig8,fig10,fig11 -svg figures

# Short fuzz pass over the parsers.
fuzz:
	$(GO) test ./internal/kvstore/ -fuzz FuzzReadCommand -fuzztime 30s -run XXX
	$(GO) test ./internal/snapfile/ -fuzz FuzzRead -fuzztime 30s -run XXX
	$(GO) test ./internal/workload/ -fuzz FuzzParseSpec -fuzztime 30s -run XXX

clean:
	rm -rf figures
