#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ under the current
# directory (the root of the checkout) and runs it with the arguments
# given. Everything the Go toolchain writes — build cache, module cache,
# telemetry — is pointed inside .bench_build/ too, so a run touches
# nothing outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off
go -C "$here" build -o "$build/s3bench" .
exec "$build/s3bench" "$@"
