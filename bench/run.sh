#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it with the
# arguments given: --workload <name> --seed <n> --seconds <s> --trace <0|1>.
# Run from the repository root, as BENCHMARK.json's command does. The build
# cache, the module path, the toolchain's temporary files and its per-user
# configuration all go under .bench_build/, so nothing is read or written
# outside the checkout. Telemetry is switched off in that configuration before
# the first go command: with a fresh configuration directory the go command
# otherwise starts a detached telemetry child that outlives this script.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
echo off > "$build/config/go/telemetry/mode"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$build/specdag-bench" ./bench
exec "$build/specdag-bench" "$@"
