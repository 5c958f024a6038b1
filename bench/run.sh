#!/bin/bash
# Builds the benchmark from source and runs it with the arguments
# given, from the root of a checkout:
#
#   bench/run.sh --workload pull --seed 1 --seconds 20 --trace 0
#
# It is `go run ./bench` with two differences. Everything the build and
# the run write stays inside the checkout, under .bench_build/ (the Go
# build cache, the go command's own state, the binary and the run's
# scratch directory), because the benchmark's driver allows no write
# outside it. And the binary is rebuilt only when a source file is newer
# than it: the go command takes three seconds to find that out by
# itself, which over the driver's 114 runs is six minutes of its hour.
#
# The go command is kept from leaving anything running: with its
# telemetry in the default "local" mode it starts, once per fresh
# configuration directory, a detached copy of itself that outlives the
# build. Its mode file under .bench_build/config says "off" before the
# first go command runs, so no such child is ever started.
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
if [ ! -f go.mod ] || [ ! -d internal ]; then
    echo "bench/run.sh: $root holds no go.mod and internal/: the program the benchmark measures is not here" >&2
    exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
echo off >"$build/config/go/telemetry/mode"

if [ ! -x "$build/bench" ] ||
    [ -n "$(find go.mod bench internal \( -name '*.go' -o -name go.mod \) -newer "$build/bench" -print -quit)" ]; then
    env GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
        GOTOOLCHAIN=local GOENV=off GOFLAGS= XDG_CONFIG_HOME="$build/config" \
        go build -o "$build/bench" ./bench
fi
exec "$build/bench" -workdir "$build/work" "$@"
