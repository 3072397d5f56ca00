#!/usr/bin/env bash
# The benchmark's single entry point. It builds the command from source
# into .bench_build/ at the root of the checkout (Go's build cache goes
# there too, so nothing is read or written outside the checkout) and
# runs it with the arguments given:
#
#   bash benchmark/run.sh --workload p4ce-small --seed 1 --seconds 20 --trace 0
#
# Without arguments it runs the whole sequence — every workload
# untraced, then every workload traced together with the layer drivers
# — and leaves each JSON result and CPU profile under benchmark/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/go-cache"
export GOPATH="$build/go-path"
export GOMODCACHE="$build/go-mod"
export XDG_CONFIG_HOME="$build/config" # go's telemetry and env files
export GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$here" && go build -o "$build/p4ce-benchmark" .)

cd "$root"
if [ "$#" -gt 0 ]; then
	exec "$build/p4ce-benchmark" "$@"
fi
"$build/p4ce-benchmark" --trace 0 --out "$here/out"
"$build/p4ce-benchmark" --trace 1 --out "$here/out"
