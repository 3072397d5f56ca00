#!/bin/sh
# Full verification gate: gofmt, vet, build, the plain test suite, the
# race-detector pass, and the benchmark regression gate. CI and
# `make check` both run this. Every test runs once per flavor here:
# `go test ./...` already covers the alloc gate, the trace, telemetry and
# fabric determinism tests and the chaos sweeps, so the named gates below
# are only the ones whose flags or entry point differ.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt =="
# Both modules: any file gofmt would rewrite fails the gate. Hidden
# directories (.git, the benchmark's .bench_build cache) are not ours.
unformatted=$(find . -path './.*' -prune -o -name '*.go' -print | xargs gofmt -l)
if [ -n "$unformatted" ]; then
	echo "gofmt -l lists:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test =="
# The chaos package alone runs the 32-seed sweep (~6 min); give every
# package binary headroom over the 10-minute default.
go test -timeout 20m ./...

echo "== go vet + go test (benchmark module) =="
# benchmark/ is its own module, so ./... above does not reach it.
(cd benchmark && go vet ./...)
(cd benchmark && go test ./...)

echo "== go test -race =="
# Race multiplies each scenario run ~10x; the chaos seed sweeps skip
# themselves under race (the fixed-seed suite still runs every
# scenario twice under the detector — see seed_sweep_test.go) but the
# package still needs headroom over the default timeout.
go test -race -timeout 20m ./...

echo "== parallel kernel determinism gate =="
# The chaos sweep the race pass above skipped, at its race-sized seed
# count: every scenario at one partition and again at two, fingerprints
# byte-identical, under the detector.
go test -race -timeout 20m ./internal/chaos -run TestParallelSeedSweep -short -count=1

echo "== fuzz: event queue model =="
# A bounded search beyond the seed corpus that go test already ran: the
# kernel's queue against its reference model, at 1, 2 and 3 partitions.
# A failing input is written under internal/sim/testdata/fuzz. New
# interesting inputs are kept unminimized (-fuzzminimizetime 0x): the
# fuzzer does not count minimization as execs, and left at its default
# it spends most of the 10 s minimizing at "0/sec".
go test ./internal/sim -run '^$' -fuzz FuzzEventQueue -fuzztime 10s -fuzzminimizetime 0x

echo "== examples =="
# Every example must build and run clean: single-group, sharded,
# fail-over over the backup fabric, the replicated store through a
# leader crash, the goodput mini-sweep and the wire tap of one
# handshake and write. Each exits nonzero if its own run fails.
go build ./examples/...
go run ./examples/quickstart >/dev/null
go run ./examples/sharded >/dev/null
go run ./examples/failover >/dev/null
go run ./examples/kvstore >/dev/null
go run ./examples/goodput >/dev/null
go run ./examples/wiretap >/dev/null

echo "== switch failover runs =="
# The fabric supervisor's two moves, end to end through the CLI: the
# standby adopting the leader's dead ToR, and every host moving onto
# the plain backup switch. Each run exits nonzero on a panic.
go run ./cmd/p4ce-sim -nodes 5 -topology leaf-spine -standby -crash tor0@50ms -duration 200ms >/dev/null
go run ./cmd/p4ce-sim -nodes 5 -backup -crash switch@50ms -duration 200ms >/dev/null

echo "== trace export gate =="
# The CLI path end to end: a simulator run writes a Perfetto trace.
go run ./cmd/p4ce-sim -rate 10000 -duration 20ms -trace-out /tmp/p4ce-trace-check.json >/dev/null
grep -q traceEvents /tmp/p4ce-trace-check.json
rm -f /tmp/p4ce-trace-check.json

echo "== telemetry determinism gate =="
# The CLI path end to end: the OpenMetrics export of a default
# (one-partition) run must equal the one from a two-partition run of
# the same seed, byte for byte.
go run ./cmd/p4ce-sim -rate 20000 -duration 20ms -telemetry-out /tmp/p4ce-tel-p1.om >/dev/null
go run ./cmd/p4ce-sim -rate 20000 -duration 20ms -partitions 2 -telemetry-out /tmp/p4ce-tel-p2.om >/dev/null
cmp /tmp/p4ce-tel-p1.om /tmp/p4ce-tel-p2.om
rm -f /tmp/p4ce-tel-p1.om /tmp/p4ce-tel-p2.om

echo "== bench regression gate =="
# Both committed baselines: the quick profile, and the smoke profile
# (about a second) that CI uploads as an artifact.
go run ./cmd/p4ce-bench -json -profile quick -out BENCH_p4ce.json
./scripts/bench_compare.sh
go run ./cmd/p4ce-bench -json -profile smoke -out BENCH_smoke.json
./scripts/bench_compare.sh bench/BENCH_smoke_baseline.json BENCH_smoke.json

echo "ok"
