GO ?= go

.PHONY: check vet cross-vet build test race loc bench microbench bench-compare paper-parity bench-smoke bench-scenario bench-fleet artifacts-check scenario-smoke fleet-smoke fuzz-smoke

# check is the CI gate: vet, build everything, then the full test suite
# under the race detector (the worker team, the runner pool and the
# shared caches are concurrent by default, so -race is not optional here).
check: vet build race

vet:
	$(GO) vet ./...

# cross-vet checks the tree on targets with no AMX file (internal/amx's
# hw_other.go stub serves them) and without cgo, so the stub cannot rot
# on a host that always builds hw_linux_amd64.{go,s}. windows/amd64 also
# vets internal/tensor's AVX2 row kernels (axpy_amd64.{go,s}: the float32
# bodies under MatMul and the int8 ones under MatMulInt8Into, which the
# INT4 tier runs) off linux, and the two arm64 targets its axpy_other.go
# stub.
cross-vet:
	GOOS=darwin GOARCH=arm64 $(GO) vet ./...
	GOOS=linux GOARCH=arm64 $(GO) vet ./...
	GOOS=windows GOARCH=amd64 $(GO) vet ./...
	CGO_ENABLED=0 $(GO) build ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# loc prints non-test Go line counts the way ROADMAP.md and the issues'
# acceptance lines count them (wc -l over every .go file that is not a
# _test.go): the three packages the simplicity items name, then all of
# internal/ + cmd/; then the assembly (.s) lines under internal/ + cmd/.
loc:
	@count() { find "$$@" -name '*.go' ! -name '*_test.go' | xargs wc -l | tail -n 1 | awk '{print $$1}'; }; \
	for d in internal/amx internal/llm internal/quant; do printf '%-18s %6d\n' $$d $$(count $$d); done; \
	printf '%-18s %6d\n' 'internal/ + cmd/' $$(count internal cmd); \
	printf '%-18s %6d\n' 'assembly (.s)' $$(find internal cmd -name '*.s' | xargs cat | wc -l)

BASE ?= HEAD~1
PAIRS ?= 10
WORKLOAD ?= offline_tiers

# bench is one run of the benchmark harness (benchmark/README.md) on
# WORKLOAD: the only source of host-time numbers in this repository.
# `go run ./benchmark -smoke` is its CI-sized cut (all four workloads, one
# second each, correctness checks on).
bench:
	$(GO) run ./benchmark -workload $(WORKLOAD) -seed 1

# microbench runs every root-package Go micro-benchmark once — a
# does-it-still-run check and a profiling entry point, not a number to
# quote (the harness's amx.*/tensor.*/llm.* per-layer rows are).
microbench:
	$(GO) test -bench=. -benchmem -benchtime=1x -run=^$$ .

# with_base opens a recipe that compares against BASE: $$tmp is a scratch
# directory holding a detached worktree of BASE at $$tmp/base, both removed
# when the recipe's shell exits.
define with_base
tmp=$$(mktemp -d) && root=$$(pwd) && \
	trap 'git worktree remove --force "$$tmp/base" 2> /dev/null; rm -rf "$$tmp"' EXIT && \
	git worktree add --detach "$$tmp/base" $(BASE) > /dev/null
endef

# bench-compare is benchmark/README.md's paired protocol: build
# ./benchmark at BASE (in a temporary git worktree) and at the working
# tree, run PAIRS alternating pairs of WORKLOAD — odd pairs BASE first,
# even pairs the working tree first, one seed per pair — and hand the two
# report sets to -compare.
bench-compare:
	@$(with_base) && \
	(cd "$$tmp/base" && $(GO) build -o "$$tmp/bench-before" ./benchmark) && \
	$(GO) build -o "$$tmp/bench-after" ./benchmark && \
	mkdir "$$tmp/before" "$$tmp/after" && \
	run() { (cd "$$1" && "$$tmp/bench-$$2" -workload $(WORKLOAD) -seed $$3 -report "$$tmp/$$2/$(WORKLOAD)-$$3.json" > /dev/null 2>&1) || { echo "$$2 run of seed $$3 failed"; return 1; }; } && \
	for i in $$(seq 1 $(PAIRS)); do \
		if [ $$((i % 2)) -eq 1 ]; then run "$$tmp/base" before $$i && run "$$root" after $$i; \
		else run "$$root" after $$i && run "$$tmp/base" before $$i; fi || exit 1; \
	done && \
	$(GO) run ./benchmark -compare "$$tmp/before" "$$tmp/after"

# paper-parity is artifacts-check's counterpart for the analytic half:
# build ./cmd/lia-bench at BASE and at the working tree, run both
# sequentially and cmp — a change to core, exec, sim or engine that moves
# any paper table or figure by one byte fails here (≈1 s per side since
# stage schedules are compiled; ≈20 s for a BASE older than that).
paper-parity:
	@$(with_base) && \
	(cd "$$tmp/base" && $(GO) build -o "$$tmp/lia-bench-before" ./cmd/lia-bench) && \
	$(GO) build -o "$$tmp/lia-bench-after" ./cmd/lia-bench && \
	"$$tmp/lia-bench-before" -j 1 > "$$tmp/before.txt" && \
	"$$tmp/lia-bench-after" -j 1 > "$$tmp/after.txt" && \
	cmp "$$tmp/before.txt" "$$tmp/after.txt" && \
	echo "lia-bench output is byte-identical at $(BASE) and in the working tree ($$(wc -c < "$$tmp/after.txt") bytes)"

# bench-smoke runs the latency-ladder benchmarks (speculative decode,
# chunked prefill, cross-sequence fused decode round) briefly under the
# race detector — a CI-sized check that the three rungs stay runnable
# and race-free, not a timing source.
bench-smoke:
	$(GO) test -race -bench='BenchmarkSpecDecode|BenchmarkChunkedPrefill|BenchmarkBatchedDecodeRound' \
		-benchtime=100ms -run=^$$ .

# bench-scenario runs the standing scenario-lab matrix (workload
# scenarios × chaos fault plans, N seeded trials per cell with live
# invariant legs) and records the byte-reproducible artifact into
# BENCH_scenario.json; the SLO verdict table prints on stderr.
bench-scenario:
	$(GO) run ./cmd/lia-serve -scenario -seed 1 > BENCH_scenario.json
	@cat BENCH_scenario.json

# bench-fleet replays one saturating code/chat blend burst through
# virtual multi-replica fleets across the scale-study matrix (placement
# policy × replica count 1/2/4/8 × homogeneous-vs-mixed device rotation)
# and records throughput plus TTFT percentiles into BENCH_fleet.json.
bench-fleet:
	$(GO) run ./cmd/lia-serve -fleet-bench -seed 1 > BENCH_fleet.json
	@cat BENCH_fleet.json

# artifacts-check regenerates the two byte-reproducible virtual-clock
# artifacts and compares them with the committed files: any change to
# serve.Machine, serve.Drive or their callers that moves a simulated
# number fails here. The scenario lab runs through the CLI into a temp
# dir (≈1 s); the fleet half is the internal/router test that pins
# router.ScaleStudy to BENCH_fleet.json byte for byte. Both files are
# also pinned by tier-1 tests (TestDefaultMatchesCommittedArtifact in
# internal/scenario, TestScaleStudyMatchesCommittedArtifact), so
# `go test ./...` checks them too.
artifacts-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/lia-serve -scenario -seed 1 2> /dev/null > "$$tmp/scenario.json" && \
	cmp "$$tmp/scenario.json" BENCH_scenario.json && \
	$(GO) test -count=1 -run 'TestScaleStudyMatchesCommittedArtifact' ./internal/router > /dev/null && \
	echo "BENCH_scenario.json and BENCH_fleet.json regenerate byte-identically"

# fleet-smoke is the CI-sized cut of the fleet: all of internal/router
# (the live 2-replica lifecycle/failover suite, the 1-replica
# fleet-vs-gateway.Replay differential over serve.Drive, the fault-plan
# validation, the placement and machine properties, the scale-study
# artifact pin) and the fleet scenario legs, under the race detector.
fleet-smoke:
	$(GO) test -race -count=1 ./internal/router
	$(GO) test -race -run 'TestFleetScenario' -count=1 ./internal/scenario

# scenario-smoke is the CI-sized cut of the lab: the 2-scenario ×
# 2-fault smoke matrix (2 trials per cell, one live leg each), the
# byte-determinism contract and the cancel-storm chaos regression, under
# the race detector; then a reduced lab run through the CLI must emit the
# artifact's schema and all six cells of the standing matrix.
scenario-smoke:
	$(GO) test -race -run 'TestRunSmokeMatrix|TestExperimentBytesDeterministic|TestCancelStormLiveGateway' \
		-count=1 ./internal/scenario
	@out=$$($(GO) run ./cmd/lia-serve -scenario -scenario-trials 2 -seed 1 2> /dev/null) && \
	echo "$$out" | grep -q '"schema": "lia-scenario/v1"' && \
	test "$$(echo "$$out" | grep -c '"scenario":')" -eq 6 && \
	echo "lia-serve -scenario -scenario-trials 2: schema lia-scenario/v1, 6 cells"

# fuzz-smoke gives each native fuzz target a short budget — enough to
# exercise the mutator without turning CI into a fuzz farm.
fuzz-smoke:
	$(GO) test -fuzz=FuzzTraceGenerator -fuzztime=10s -run=^$$ ./internal/trace
	$(GO) test -fuzz=FuzzServeConfigValidate -fuzztime=10s -run=^$$ ./internal/serve
	$(GO) test -fuzz=FuzzPlanHost -fuzztime=10s -run=^$$ ./internal/memplan
	$(GO) test -fuzz=FuzzPrefixTree -fuzztime=10s -run=^$$ ./internal/kvprefix
	$(GO) test -fuzz=FuzzSparsePrepack -fuzztime=10s -run=^$$ ./internal/amx
	$(GO) test -fuzz=FuzzRouterPlacement -fuzztime=10s -run=^$$ ./internal/router
