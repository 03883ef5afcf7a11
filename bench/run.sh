#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. Everything the go tool writes (build cache, temporary
# files, telemetry) is kept under .bench_build/ at the root of the checkout,
# and so is the binary; nothing outside the checkout is touched.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

go build -C "$here" -o "$out/acdcbench" .
exec "$out/acdcbench" -spans "$out/spans.json" "$@"
