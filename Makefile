GO ?= go

.PHONY: check vet build test race bench bench-compare paper-parity bench-functional bench-gateway bench-offload bench-prefix bench-smoke bench-chunked bench-quant bench-scenario bench-fleet artifacts-check scenario-smoke fleet-smoke fuzz-smoke

# check is the CI gate: vet, build everything, then the full test suite
# under the race detector (the worker team, the runner pool and the
# shared caches are concurrent by default, so -race is not optional here).
check: vet build race

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -benchtime=1x -run=^$$ .

BASE ?= HEAD~1
PAIRS ?= 10
WORKLOAD ?= offline_tiers

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

# bench-functional runs the allocation-sensitive micro-benchmarks the
# BENCH_functional.json baseline records (decode step, packed vs legacy
# AMX matmul, block-sparse skip, INT4 LUT-GEMV, single tile ops byte vs
# decoded, parallel batch generation).
bench-functional:
	$(GO) test -bench='BenchmarkFunctionalDecodeStep|BenchmarkAMXMatmul|BenchmarkINT4LUTGEMV|BenchmarkFunctionalGenerateBatch|BenchmarkTDP' \
		-benchmem -benchtime=2s -run=^$$ .

# bench-gateway drives the live gateway with concurrent closed-loop
# clients and records sustained req/s plus exact client-side TTFT
# percentiles into BENCH_gateway.json.
bench-gateway:
	$(GO) run ./cmd/lia-serve -live-bench -bench-clients 8 -bench-seconds 3 \
		-max-batch 8 -live-kv-tokens 256 -seed 1 > BENCH_gateway.json
	@cat BENCH_gateway.json

# bench-offload generates the same stream resident and tier-hosted
# (DDR-streamed, CXL-streamed) and records the wall-clock and
# virtual-clock decode latencies into BENCH_offload.json.
bench-offload:
	$(GO) run ./cmd/lia-serve -offload-bench -bench-tokens 32 -seed 1 > BENCH_offload.json
	@cat BENCH_offload.json

# bench-prefix replays a skewed hot-prefix trace with the prefix cache
# off and on, checks the token streams stay bit-identical, and records
# TTFT medians plus the analytic concurrency win into BENCH_prefix.json.
bench-prefix:
	$(GO) run ./cmd/lia-serve -prefix-bench -seed 1 > BENCH_prefix.json
	@cat BENCH_prefix.json

# bench-smoke runs the latency-ladder benchmarks (speculative decode,
# chunked prefill, cross-sequence fused decode round) briefly under the
# race detector — a CI-sized check that the three rungs stay runnable
# and race-free, not a timing source.
bench-smoke:
	$(GO) test -race -bench='BenchmarkSpecDecode|BenchmarkChunkedPrefill|BenchmarkBatchedDecodeRound' \
		-benchtime=100ms -run=^$$ .

# bench-chunked replays a long-prompt + short-burst mix through the live
# gateway with monolithic vs chunked prefill, checks bit-identity, and
# reports short-request TTFT percentiles for both modes.
bench-chunked:
	$(GO) run ./cmd/lia-serve -chunked-bench -prefill-chunk 4 -seed 1

# bench-quant decodes the same stream under the dense, block-sparse,
# and INT4 LUT weight tiers and records per-tier decode speed, serving
# footprint, and accuracy against the dense baseline into
# BENCH_quant.json.
bench-quant:
	$(GO) run ./cmd/lia-serve -quant-bench -live-policy cpu -bench-tokens 64 -seed 1 > BENCH_quant.json
	@cat BENCH_quant.json

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
# artifacts into a temp dir and compares them with the committed files:
# any change to serve.Machine or its drivers that moves a simulated
# number fails here (≈1 s each).
artifacts-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/lia-serve -scenario -seed 1 2> /dev/null > "$$tmp/scenario.json" && \
	cmp "$$tmp/scenario.json" BENCH_scenario.json && \
	$(GO) run ./cmd/lia-serve -fleet-bench -seed 1 2> /dev/null > "$$tmp/fleet.json" && \
	cmp "$$tmp/fleet.json" BENCH_fleet.json && \
	echo "BENCH_scenario.json and BENCH_fleet.json regenerate byte-identically"

# fleet-smoke is the CI-sized cut of the fleet: the live 2-replica
# lifecycle/failover suite, the 1-replica router-vs-bare-gateway
# differential, and the fleet scenario legs, under the race detector.
fleet-smoke:
	$(GO) test -race -run 'TestRouter|TestFleetReplay' -count=1 ./internal/router
	$(GO) test -race -run 'TestFleetScenario' -count=1 ./internal/scenario

# scenario-smoke is the CI-sized cut of the lab: the 2-scenario ×
# 2-fault smoke matrix (2 trials per cell, one live leg each) plus the
# byte-determinism contract, under the race detector.
scenario-smoke:
	$(GO) test -race -run 'TestRunSmokeMatrix|TestExperimentBytesDeterministic|TestCancelStormLiveGateway' \
		-count=1 ./internal/scenario

# fuzz-smoke gives each native fuzz target a short budget — enough to
# exercise the mutator without turning CI into a fuzz farm.
fuzz-smoke:
	$(GO) test -fuzz=FuzzTraceGenerator -fuzztime=10s -run=^$$ ./internal/trace
	$(GO) test -fuzz=FuzzServeConfigValidate -fuzztime=10s -run=^$$ ./internal/serve
	$(GO) test -fuzz=FuzzPlanHost -fuzztime=10s -run=^$$ ./internal/memplan
	$(GO) test -fuzz=FuzzPrefixTree -fuzztime=10s -run=^$$ ./internal/kvprefix
	$(GO) test -fuzz=FuzzSparsePrepack -fuzztime=10s -run=^$$ ./internal/amx
	$(GO) test -fuzz=FuzzRouterPlacement -fuzztime=10s -run=^$$ ./internal/router
