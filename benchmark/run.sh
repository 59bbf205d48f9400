#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it.
# Everything the toolchain and the benchmark write (build cache, binary,
# state directories) stays under <checkout>/.bench_build.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/chirpbench" .)
exec "$build/chirpbench" -state-root "$build/state" "$@"
