#!/usr/bin/env bash
# Builds and runs the benchmark from the root of a checkout, keeping what the
# Go tool writes (build cache, GOPATH) inside the checkout: the benchmark may
# read and write nowhere else. Arguments pass through to bench (see main.go).
set -euo pipefail
cd "$(dirname "$0")/.."
export GOCACHE="$PWD/.bench_build/go-cache" GOPATH="$PWD/.bench_build/gopath" GOTOOLCHAIN=local
exec go run ./bench "$@"
