#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a
# checkout. Everything the build and the run leave behind — the Go build
# cache, the binary, temporary journals — stays in .bench_build/ inside
# the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/gocache"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off
export TMPDIR="$build/tmp"

if git -C "$root" rev-parse --short HEAD >/dev/null 2>&1; then
	ERPI_BENCH_COMMIT="$(git -C "$root" rev-parse --short HEAD)"
	export ERPI_BENCH_COMMIT
fi

(cd "$here" && go build -o "$build/erpi-benchmark" .)
exec "$build/erpi-benchmark" "$@"
