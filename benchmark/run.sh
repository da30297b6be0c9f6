#!/usr/bin/env bash
# Entry point BENCHMARK.json names: builds the benchmark from source into
# .bench_build/ at the root of the checkout, then runs it with the caller's
# flags. Everything the Go toolchain writes (build cache, temporary files,
# its telemetry counters under the user's config directory) stays under
# .bench_build/, so a run touches nothing outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off
# go build relinks only when a source file changed.
(cd "$here" && XDG_CONFIG_HOME="$out/config" go build -o "$out/benchmark" .)
exec "$out/benchmark" "$@"
