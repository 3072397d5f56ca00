#!/bin/sh
# Simulation parity check: does the working tree simulate exactly what
# <git-ref> simulates? Builds cmd/p4ce-sim at the ref and at the working
# tree, runs both on the happy path and on every named chaos scenario
# with -metrics, and compares the outputs byte for byte with the
# per-site kernel event counters (sim.events.*) masked — a change that
# only removes or merges kernel events passes; one that moves any
# simulated value fails. The happy path is also run in Mu mode, once
# more in Mu mode at 4 KiB values through a leader crash (the
# re-replication cache's byte bound binds at that size, and the new
# leader catches its peers up from it), and one star and one leaf-spine
# scenario at two partitions. Each run's line
# shows its sim.events.* total at the ref and in the working tree
# (old -> new), the census of an event cut.
#
#	scripts/sim_parity.sh <git-ref>
#
# Needs the ref's objects locally, so it is not part of check.sh (CI
# clones shallow). Exits non-zero on the first build failure and after
# listing every run whose output differs.
set -eu
if [ $# -ne 1 ]; then
	echo "usage: $0 <git-ref>" >&2
	exit 2
fi
ref=$1
cd "$(dirname "$0")/.."

work=$(mktemp -d "${TMPDIR:-/tmp}/sim_parity.XXXXXX")
trap 'rm -rf "$work"' EXIT

mkdir "$work/src" "$work/old" "$work/new"
git archive "$ref" | tar -x -C "$work/src"
(cd "$work/src" && go build -o "$work/p4ce-sim-old" ./cmd/p4ce-sim)
go build -o "$work/p4ce-sim-new" ./cmd/p4ce-sim

# events <file>: the sum of the sim.events.* counters in a -metrics dump.
events() {
	awk -F': ' '/"sim\.events\./ { sub(/,$/, "", $2); n += $2 } END { printf "%d", n }' "$1"
}

# run <name> <args...>: one invocation on both builds, metrics masked.
fail=0
run() {
	name=$1
	shift
	for side in old new; do
		if ! "$work/p4ce-sim-$side" "$@" -metrics >"$work/$side/$name.raw" 2>&1; then
			echo "FAILED  $name ($side build): p4ce-sim $*"
			fail=1
		fi
		grep -v '"sim\.events\.' "$work/$side/$name.raw" >"$work/$side/$name.txt" || true
	done
	census="events $(events "$work/old/$name.raw") -> $(events "$work/new/$name.raw")"
	if cmp -s "$work/old/$name.txt" "$work/new/$name.txt"; then
		echo "same    $name ($census)"
	else
		echo "DIFFERS $name ($census): p4ce-sim $*"
		diff "$work/old/$name.txt" "$work/new/$name.txt" | head -20
		fail=1
	fi
}

run happy-path
run happy-path-mu -mode mu
run mu-4k-crash -mode mu -size 4096 -nodes 5 -rate 200000 -crash leader@50ms -duration 150ms
for sc in $("$work/p4ce-sim-new" -chaos list | awk '{print $1}'); do
	case $sc in
	# The scenarios marked Fabric in internal/chaos/scenarios.go.
	rack-partition | spine-loss | tor-failover-under-load)
		run "$sc" -chaos "$sc" -topology leaf-spine -standby -nodes 5 ;;
	*)
		run "$sc" -chaos "$sc" ;;
	esac
done
run lossy-gather-p2 -chaos lossy-gather -chaos-seed 7 -partitions 2
run tor-failover-p2 -chaos tor-failover-under-load -topology leaf-spine -standby -nodes 5 -partitions 2

if [ $fail -ne 0 ]; then
	echo "sim_parity: outputs differ from $ref" >&2
	exit 1
fi
echo "sim_parity: identical to $ref apart from sim.events.* counters"
