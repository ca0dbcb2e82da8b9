#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload mmio-rw-4x --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the Go toolchain writes (build
# cache, module cache, telemetry) stays under the build directory, which is
# $CARGO_TARGET_DIR when set and .bench_build otherwise.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/home"

export HOME=$build/home XDG_CONFIG_HOME=$build/home/.config \
	GOCACHE=$build/gocache GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOTELEMETRY=off GOENV=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out-dir "$build/traces" "$@"
