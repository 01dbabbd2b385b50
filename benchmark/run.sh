#!/usr/bin/env bash
# Builds the fleet benchmark inside the checkout and runs it: the command
# BENCHMARK.json names. Everything the build and the run write — Go's build
# cache, its temp files, the binary, the daemons' data dirs — stays under
# .bench_build/ (and benchmark/out/ for traces), so nothing outside the
# checkout is touched. Arguments go to the benchmark unchanged.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ]; then
	echo "benchmark/run.sh: no go.mod in $root: the benchmark builds only inside the repository" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOMODCACHE="$build/gomod"
export XDG_CONFIG_HOME="$build/config" # Go's telemetry counters go here, not to $HOME
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -o "$build/fleetbench" ./benchmark
exec "$build/fleetbench" "$@"
