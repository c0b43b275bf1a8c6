# Development targets; the repository is stdlib-only Go, so everything here
# is a thin wrapper over the go tool.

GO ?= go

.PHONY: build test vet race service-e2e fabric-e2e validate validate-scenarios validate-adaptive bench bench-json bench-check bench-kernel bench-service bench-service-baseline bench-fabric bench-fabric-baseline vulncheck fuzz-ndjson verify loc

# Benchmarks the committed BENCH_2.json baseline tracks: the batch kernel
# (the configs_per_sec headline), sweep throughput, the per-configuration
# fast path, and the telemetry/tracing overhead pairs (the Nil benchmarks
# and the batch kernel must stay at 0 allocs/op).
BASELINE_BENCH = BenchmarkRunBatch|BenchmarkSweepStreaming|BenchmarkRunFast|BenchmarkObsNilOverhead|BenchmarkObsEnabledOverhead|BenchmarkTraceNilOverhead|BenchmarkTraceEnabledOverhead

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The sweep engine, simulators (link and the scenario family), telemetry
# layer and campaign service are the concurrency-heavy packages; run them
# (and the CLI/daemon e2e tests) under the race detector.
race:
	$(GO) test -race ./internal/sweep ./internal/sim ./internal/obs ./internal/serve \
		./internal/scenario ./internal/netsim ./internal/interference \
		./internal/lpl ./internal/mobility ./internal/fabric \
		./internal/adaptive \
		./cmd/wsnsweep ./cmd/wsnlinkd ./cmd/wsnload

# The daemon e2e suite on its own: boots wsnlinkd on a loopback port and
# proves cache-hit replay and kill/restart resume are byte-identical.
service-e2e:
	$(GO) test ./cmd/wsnlinkd/...

# The distributed-fabric e2e suite: the fabric package under the race
# detector, then the coordinator smoke — a campaign sharded across three
# runner processes, one SIGKILLed mid-stream, the merged output still
# byte-identical to a single-daemon run.
fabric-e2e:
	$(GO) test -race ./internal/fabric
	$(GO) test -run TestCoordinator -count=1 -v ./cmd/wsnlinkd

bench:
	$(GO) test -bench=. -benchmem

# Known-vulnerability scan. Soft dependency: the repo is stdlib-only, so
# govulncheck is not required for development; CI installs it, and locally
# the target degrades to a notice instead of failing.
vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# The validation harness (DESIGN.md §7): analytic oracles + metamorphic
# laws across three distinct base seeds, plus one pass on the full DES
# engine. Deterministic — a red verdict reproduces with the same seed.
validate:
	$(GO) build -o /tmp/wsnvalid ./cmd/wsnvalid
	/tmp/wsnvalid -seed 1 -q -out /tmp/wsnvalid-1.json
	/tmp/wsnvalid -seed 2 -q -out /tmp/wsnvalid-2.json
	/tmp/wsnvalid -seed 3 -q -out /tmp/wsnvalid-3.json
	/tmp/wsnvalid -seed 1 -des -seeds 16 -packets 500 -q

# The scenario extension of the validation harness: star/link exactness,
# shared-medium conservation, goodput bounds and scenario metamorphic laws
# across two base seeds (DESIGN.md §8).
validate-scenarios:
	$(GO) build -o /tmp/wsnvalid ./cmd/wsnvalid
	/tmp/wsnvalid -scenarios -seed 1 -q -out /tmp/wsnvalid-scn-1.json
	/tmp/wsnvalid -scenarios -seed 2 -q -out /tmp/wsnvalid-scn-2.json

# The adaptive extension of the validation harness: the explorer must
# recover >=95% of the exhaustive front hypervolume from <=10% of the
# evaluations on a 1600-cell reference grid, with every evaluated cell
# CRN-identical to the exhaustive sweep (DESIGN.md §11).
validate-adaptive:
	$(GO) build -o /tmp/wsnvalid ./cmd/wsnvalid
	/tmp/wsnvalid -adaptive -seed 1 -q -out /tmp/wsnvalid-ad-1.json
	/tmp/wsnvalid -adaptive -seed 2 -q -out /tmp/wsnvalid-ad-2.json

# Regenerate the committed benchmark baseline as JSON.
bench-json:
	$(GO) build -o /tmp/benchjson ./cmd/benchjson
	$(GO) test -run '^$$' -bench '$(BASELINE_BENCH)' -benchmem . ./internal/obs \
		| /tmp/benchjson > BENCH_2.json

# Regression gate: rerun the batch kernel benchmark and fail if its
# configs/s throughput dropped more than 20% below the committed baseline.
bench-check:
	$(GO) build -o /tmp/benchjson ./cmd/benchjson
	$(GO) test -run '^$$' -bench 'BenchmarkRunBatch' -benchmem . \
		| /tmp/benchjson -baseline BENCH_2.json > /dev/null

# Kernel benchmarks for a same-host before/after comparison: the batch
# kernel, the pooled fast path, the DES engine and the sweep engine in the
# daemon's shape (telemetry on and off), ten samples each with allocation
# counts. Run it in both checkouts, interleaved, and compare medians
# against the spread of the baseline's samples.
bench-kernel:
	$(GO) test -run '^$$' -bench '^(BenchmarkRunBatch|BenchmarkRunFast|BenchmarkSimDES|BenchmarkStreamServed)$$' \
		-count=10 -benchmem .

# Service benchmark knobs, shared by the baseline and the gate so both
# measure the same workload shape.
WSNLOAD_FLAGS = -clients 8 -duration 10s -ramp 1s

# _bench-service-run boots a throwaway daemon on a free port, drives it
# with wsnload and leaves the fresh document at /tmp/wsnload-fresh.json.
# The daemon gets SIGTERM afterwards, so every bench run also exercises
# the graceful drain path.
define _bench_service_run
	$(GO) build -o /tmp/wsnlinkd ./cmd/wsnlinkd
	$(GO) build -o /tmp/wsnload ./cmd/wsnload
	rm -rf /tmp/wsnload-bench-data /tmp/wsnlinkd-bench.addr
	/tmp/wsnlinkd -addr localhost:0 -addr-file /tmp/wsnlinkd-bench.addr \
		-data-dir /tmp/wsnload-bench-data -jobs 2 2>/tmp/wsnlinkd-bench.log & \
		echo $$! > /tmp/wsnlinkd-bench.pid
	for i in $$(seq 50); do [ -s /tmp/wsnlinkd-bench.addr ] && break; sleep 0.1; done
	/tmp/wsnload -addr "$$(cat /tmp/wsnlinkd-bench.addr)" $(WSNLOAD_FLAGS) \
		> /tmp/wsnload-fresh.json; \
		status=$$?; kill -TERM "$$(cat /tmp/wsnlinkd-bench.pid)" 2>/dev/null; \
		wait "$$(cat /tmp/wsnlinkd-bench.pid)" 2>/dev/null; exit $$status
endef

# Regenerate the committed service baseline (BENCH_3.json): a live daemon
# under mixed cache-hit/miss load, headlined by submit p99 and rows/s.
bench-service-baseline:
	$(_bench_service_run)
	cp /tmp/wsnload-fresh.json BENCH_3.json

# Service regression gate: rerun the load harness against a fresh daemon
# and fail when rows/s regresses >20% or submit p99 blows past 4x the
# committed BENCH_3.json baseline.
bench-service:
	$(GO) build -o /tmp/benchjson ./cmd/benchjson
	$(_bench_service_run)
	/tmp/benchjson -service-baseline BENCH_3.json < /tmp/wsnload-fresh.json

# _bench_fabric_run boots three runner daemons plus a coordinator sharding
# over them, drives wsnload at the coordinator with the same workload shape
# as the single-daemon baseline, and leaves the fresh document at
# /tmp/wsnload-fabric-fresh.json. All four daemons get SIGTERM afterwards.
define _bench_fabric_run
	$(GO) build -o /tmp/wsnlinkd ./cmd/wsnlinkd
	$(GO) build -o /tmp/wsnload ./cmd/wsnload
	rm -rf /tmp/wsnfabric-bench && mkdir -p /tmp/wsnfabric-bench
	for i in 1 2 3; do \
		/tmp/wsnlinkd -addr localhost:0 -addr-file /tmp/wsnfabric-bench/r$$i.addr \
			-data-dir /tmp/wsnfabric-bench/r$$i -jobs 2 \
			2>/tmp/wsnfabric-bench/r$$i.log & \
		echo $$! >> /tmp/wsnfabric-bench/pids; \
	done; \
	for i in $$(seq 50); do \
		[ -s /tmp/wsnfabric-bench/r1.addr ] && [ -s /tmp/wsnfabric-bench/r2.addr ] \
			&& [ -s /tmp/wsnfabric-bench/r3.addr ] && break; sleep 0.1; \
	done
	/tmp/wsnlinkd -addr localhost:0 -addr-file /tmp/wsnfabric-bench/coord.addr \
		-data-dir /tmp/wsnfabric-bench/coord -coordinator \
		-runners "$$(cat /tmp/wsnfabric-bench/r1.addr),$$(cat /tmp/wsnfabric-bench/r2.addr),$$(cat /tmp/wsnfabric-bench/r3.addr)" \
		2>/tmp/wsnfabric-bench/coord.log & \
		echo $$! >> /tmp/wsnfabric-bench/pids; \
	for i in $$(seq 50); do [ -s /tmp/wsnfabric-bench/coord.addr ] && break; sleep 0.1; done
	/tmp/wsnload -addr "$$(cat /tmp/wsnfabric-bench/coord.addr)" $(WSNLOAD_FLAGS) \
		> /tmp/wsnload-fabric-fresh.json; \
		status=$$?; kill -TERM $$(cat /tmp/wsnfabric-bench/pids) 2>/dev/null; \
		sleep 1; exit $$status
endef

# Regenerate the committed coordinator baseline (BENCH_4.json): the same
# wsnload workload as BENCH_3, but submitted to a coordinator sharding
# every campaign across three local runners. Comparing the two documents'
# rows_per_sec headlines prices the fabric's merge/requeue machinery
# against a single daemon on the same host.
bench-fabric-baseline:
	$(_bench_fabric_run)
	cp /tmp/wsnload-fabric-fresh.json BENCH_4.json

# Coordinator regression gate, mirroring bench-service against BENCH_4.
bench-fabric:
	$(GO) build -o /tmp/benchjson ./cmd/benchjson
	$(_bench_fabric_run)
	/tmp/benchjson -service-baseline BENCH_4.json < /tmp/wsnload-fabric-fresh.json

# Differential fuzz of the NDJSON row decoder against the map-based
# reference decoder kept in internal/serve/ndjson_test.go.
fuzz-ndjson:
	$(GO) test ./internal/serve -run '^$$' -fuzz FuzzNDJSONDecoderMatchesReference -fuzztime 20s

# Go line counts, non-test and test, over the files git tracks or would
# track, excluding the servicebench module; each change reports its net
# non-test delta from these numbers.
loc:
	@printf 'non-test %s\n' "$$(git ls-files --cached --others --exclude-standard -- '*.go' ':!servicebench/**' ':!*_test.go' | xargs cat | wc -l)"
	@printf 'test %s\n' "$$(git ls-files --cached --others --exclude-standard -- '*_test.go' ':!servicebench/**' | xargs cat | wc -l)"

# The full quality gate (DESIGN.md §6).
verify: build vet test race validate validate-scenarios validate-adaptive
