#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the caller's arguments.
# Everything the build writes (binary, Go build cache, temporary files) stays
# under benchmark/.build, so a run touches nothing outside the checkout.
set -euo pipefail
dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
mkdir -p "$dir/.build/tmp"
export GOCACHE="$dir/.build/gocache" GOTMPDIR="$dir/.build/tmp" GOFLAGS=-mod=mod GOTOOLCHAIN=local
go build -C "$dir" -o "$dir/.build/benchmark" .
exec "$dir/.build/benchmark" -out "$dir/out" "$@"
