#!/usr/bin/env bash
# Builds bench/fungusload from source and runs it with the given arguments.
# Every file the toolchain or the benchmark writes (build cache, temp files,
# data directories, traces) stays inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomod" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomod"
export XDG_CONFIG_HOME="$build/config" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/fungusload" ./fungusload)
cd "$root"
exec "$build/fungusload" -tmp "$build/tmp" "$@"
