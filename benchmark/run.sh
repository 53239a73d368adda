#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it; the benchmark
# builds the server under test itself, with the environment set here.
# Everything the toolchain writes (build cache, temporary files,
# telemetry, binaries, results) stays under benchmark/out/.
set -euo pipefail
cd "$(dirname "$0")"
out="$PWD/out"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOENV=off GOWORK=off
go build -o "$out/bin/rpbench" .
exec "$out/bin/rpbench" "$@"
