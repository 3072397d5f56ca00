# Convenience targets; everything is plain `go` underneath.

.PHONY: build test race vet check chaos bench bench-smoke bench-micro trace-demo test-race-parallel

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

vet:
	go vet ./...

# Race-detector pass over the parallel kernel surface: the partitioned
# scheduler itself, the cross-partition integration tests, and the
# partitioned chaos sweep (short seed set; drop -short for the full one).
test-race-parallel:
	go test -race ./internal/sim -count=1
	go test -race . -run 'TestParallelKernelDeterminism|TestShardClock' -count=1
	go test -race ./internal/chaos -run TestParallelSeedSweep -short -count=1

# The full verification gate (vet + build + test + race).
check:
	./scripts/check.sh

# Regenerate the machine-readable benchmark report (quick profile) and
# gate it against the committed baseline: >10% regression fails. The
# report's tables are printed too.
bench-smoke:
	go test ./internal/bench -run 'TestSmokeReport|TestCompareDetectsRegression' -count=1
	go run ./cmd/p4ce-bench -json -profile quick -out BENCH_p4ce.json
	./scripts/bench_compare.sh

# Full paper-shaped benchmark report: every EXPERIMENTS.md table.
bench:
	go run ./cmd/p4ce-bench -json -profile full -out BENCH_p4ce.json

# Hot-path microbenchmarks with allocation counts: kernel event queue,
# ticker re-arm, CPU work items, and the end-to-end consensus loop. The
# allocs/op columns are the zero-allocation contract; the alloc gate
# (TestZeroAllocSteadyState, part of `make test`) enforces the
# end-to-end one.
bench-micro:
	go test ./internal/sim -run xxx -bench . -benchmem
	go test ./internal/bench -run xxx -bench 'BenchmarkP4CE|BenchmarkMu' -benchmem

# One-shot causal-trace demo: run the simulator with tracing on, print
# the per-stage latency decomposition, and write a Perfetto trace to
# open in https://ui.perfetto.dev.
trace-demo:
	go run ./cmd/p4ce-sim -rate 10000 -duration 50ms -trace-out trace.json
	go run ./cmd/p4ce-bench -experiment breakdown -profile full

# Run every named chaos scenario through the simulator. The fabric
# scenarios need the leaf-spine topology (with a standby for the ToR
# failover), so they run on a 5-node 2-rack cluster.
chaos:
	@for s in lossy-gather replica-flap leader-partition shard-leader-outage switch-reboot; do \
		echo "== $$s =="; \
		go run ./cmd/p4ce-sim -nodes 3 -chaos $$s -chaos-seed 99 -rate 10000 || exit 1; \
	done
	@for s in spine-loss rack-partition tor-failover-under-load; do \
		echo "== $$s =="; \
		go run ./cmd/p4ce-sim -nodes 5 -topology leaf-spine -racks 2 -standby -chaos $$s -chaos-seed 99 -rate 10000 || exit 1; \
	done
