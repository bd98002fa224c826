#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the module root:
#
#   bash perfbench/run.sh --workload grid --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build): the Go build cache, the
# binary, results, span files and the deploy workload's temporary state.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ] || [ ! -d perfbench ]; then
	echo "perfbench: run from the root of the p4update module" >&2
	exit 2
fi

root=$(pwd -P)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/go-cache" "$build/go-tmp" "$build/home" "$build/work"

# Keep the toolchain's caches, temporary files and configuration inside
# the build directory, and never reach for a network module proxy.
env HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
	GOPATH="$build/home/go" GOCACHE="$build/go-cache" GOTMPDIR="$build/go-tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
	go build -buildvcs=false -o "$build/perfbench" ./perfbench

exec "$build/perfbench" --workdir "$build/work" "$@"
