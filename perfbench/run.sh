#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments (see main.go). Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload train-minibatch --seed 1 --seconds 20 --trace 0
#
# Everything the build writes stays in .bench_build at the checkout
# root: the Go build cache, the binary and the run's scratch files.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build"
# The go command's user configuration (env file, telemetry counters)
# lives under XDG_CONFIG_HOME, so that moves into the checkout too.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
# The go command's work directories and any temporary file of the run
# stay in the checkout as well.
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
mkdir -p "$build/tmp"
export GOFLAGS= GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local
# The packed GEMM kernels need GOAMD64=v3 to compile math.FMA to a bare
# VFMADD (the repository's Makefile default); the host stamp records it.
export GOAMD64="${GOAMD64:-v3}"
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
