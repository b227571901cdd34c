#!/usr/bin/env bash
# Builds the shipped binaries and the benchmark from source, then runs one
# benchmark workload; every argument is passed on to perfbench, e.g.
#
#   bash perfbench/run.sh --workload null_stream --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays in
# .bench_build/ there; build output goes to standard error so the last line
# of standard output is the result.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
# GOTMPDIR and XDG_CONFIG_HOME keep the go command's scratch, config and
# telemetry files in here too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local XDG_CONFIG_HOME="$out/config"
mkdir -p "$out/bin" "$out/tmp"
go build -o "$out/bin/" ./cmd/cohortd ./cmd/cohortgw ./cmd/cohortbench 1>&2
go -C perfbench build -o "$out/bin/perfbench" . 1>&2
exec "$out/bin/perfbench" -bin "$out/bin" -out "$out/out" -golden "$root/perfbench/golden" "$@"
