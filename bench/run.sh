#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness inside the
# checkout and runs it. The Go build cache defaults to $HOME, which is
# outside the checkout, so it is redirected unless the caller set one.
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p .out
export GOCACHE="${GOCACHE:-$PWD/.out/gocache}"
go build -o .out/aa-bench ./aa-bench
exec .out/aa-bench "$@"
