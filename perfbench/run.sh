#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it from the checkout
# root. Every file the build and the run write stays under .bench_build/.
#
#   bash perfbench/run.sh --workload annotate-cold --seed 1 --seconds 10 --trace 0
set -euo pipefail

root="$(pwd)"
work="$root/.bench_build/perfbench"
mkdir -p "$work"
export GOTOOLCHAIN=local GOENV=off GOFLAGS= GOWORK=off
export GOCACHE="$work/gocache" GOMODCACHE="$work/modcache" GOPATH="$work/gopath"

(cd "$root/perfbench" && go build -o "$work/perfbench" .) >&2
exec "$work/perfbench" "$@"
