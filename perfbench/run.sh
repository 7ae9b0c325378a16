#!/usr/bin/env bash
# Builds argod and the benchmark from this checkout's sources, then runs
# one workload. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload compile-cold --seed 1 --seconds 10 --trace 0
#
# Everything the build writes stays under .bench_build/ in the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/argod ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the root of an argo checkout (needs go.mod, cmd/argod and perfbench/)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/home"
export GOCACHE="$root/.bench_build/gocache"
export GOMODCACHE="$root/.bench_build/gomodcache"
export GOPATH="$root/.bench_build/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOTOOLCHAIN=local

go build -o "$out/argod" ./cmd/argod
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -argod "$out/argod" -out "$out" "$@"
