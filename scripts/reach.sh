#!/usr/bin/env bash
# Reach report: which functions of internal/ the paper's figures and the
# fleet benchmark's workloads reach, which only tier-1's tests reach, and
# which nothing reaches.
#
#   bash scripts/reach.sh [seconds per workload, default 3]
#
# It builds seabed-bench and the fleet benchmark cover-instrumented
# (-cover -coverpkg=seabed/...), runs `seabed-bench -quick` and every fleet
# workload traced for a few seconds, runs tier-1 (`go test ./...`) with the
# same instrumentation, and merges each source's profiles with
# `go tool covdata`. It prints one line per function of internal/:
#
#   run    <sources> <file:line> <function>   reached by a run
#   tests  -         <file:line> <function>   reached by tier-1's tests only
#   none   -         <file:line> <function>   reached by neither
#
# where <sources> names the runs that reach it — bench (seabed-bench -quick),
# fleet (the fleet workloads) or bench,fleet — then a count per package. The
# raw coverage stays in .bench_build/reach/cov/{bench,fleet,test}, for a
# closer look by block: `go tool covdata textfmt -i=<dir> -o <file>`.
# Everything it writes — Go's build cache, the binaries, the coverage data,
# the daemons' data dirs — stays under .bench_build/ (git-ignored); the
# fleet benchmark's traces go to benchmark/out/ as a plain run's do. It takes
# about two minutes on a 2-core host.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
secs="${1:-3}"
out="$root/.bench_build/reach"
rm -rf "$out/cov"
mkdir -p "$out/tmp" "$out/cov/bench" "$out/cov/fleet" "$out/cov/test"
export GOCACHE="$root/.bench_build/gocache"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOMODCACHE="$root/.bench_build/gomod"
export XDG_CONFIG_HOME="$root/.bench_build/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -cover -coverpkg=seabed/... -o "$out/seabed-bench" ./cmd/seabed-bench
go build -cover -coverpkg=seabed/... -o "$out/fleetbench" ./benchmark

echo "reach: seabed-bench -quick" >&2
GOCOVERDIR="$out/cov/bench" "$out/seabed-bench" -quick >"$out/seabed-bench.txt"
for w in dashboard heavy_groupby scan_cold ingest_mix; do
	echo "reach: fleet workload $w (${secs}s)" >&2
	GOCOVERDIR="$out/cov/fleet" "$out/fleetbench" -workload "$w" -trace 1 -seconds "$secs" >"$out/$w.txt"
done
echo "reach: tier-1 tests" >&2
go test -count=1 -cover -coverpkg=seabed/... ./... -args -test.gocoverdir="$out/cov/test" >"$out/tests.txt"

# Per function, "file:line name pct" for each side.
funcs() {
	go tool covdata func -i="$1" | awk '$1 ~ /^seabed\/internal\// { sub(/%$/, "", $3); print $1, $2, $3 }'
}
for src in bench fleet test; do
	funcs "$out/cov/$src" >"$out/$src.func"
done
awk '
	FILENAME ~ /bench.func$/ { if ($3 + 0 > 0) src[$1 " " $2] = "bench"; next }
	FILENAME ~ /fleet.func$/ {
		k = $1 " " $2
		if ($3 + 0 > 0) {
			v = k in src ? src[k] ",fleet" : "fleet"
			src[k] = v
		}
		next
	}
	{
		k = $1 " " $2
		where = "none"
		if (k in src) where = "run"
		else if ($3 + 0 > 0) where = "tests"
		sub(/^seabed\//, "", $1)
		print where, (k in src ? src[k] : "-"), $1, $2
	}
' "$out/bench.func" "$out/fleet.func" "$out/test.func" | sort -k3,3V >"$out/reach.txt"
cat "$out/reach.txt"
echo
awk '{ split($3, p, "/"); pkg = p[1] "/" p[2]; n[pkg " " $1]++ } END { for (k in n) print k, n[k] }' "$out/reach.txt" |
	sort | awk '{ printf "%-22s %-6s %d\n", $1, $2, $3 }'
