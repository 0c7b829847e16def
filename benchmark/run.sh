#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Run from the root of a checkout:
#
#   bash benchmark/run.sh --workload hot --seed 1 --seconds 16 --trace 0
#
# It builds the benchmark from source and runs it with the arguments
# given. Everything the go tool writes - build cache, temporary files,
# its own configuration, binaries - stays inside the checkout, under
# .bench_build/.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/ftserve" ] || [ ! -f "$root/benchmark/go.mod" ]; then
	echo "benchmark/run.sh: run from the root of a full checkout: it needs go.mod, cmd/ftserve and benchmark/" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp" "$root/benchmark/out"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off

(cd "$root/benchmark" && go build -o "$build/ftbenchmark" .)
exec "$build/ftbenchmark" "$@"
