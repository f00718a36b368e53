#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#   bash perfbench/run.sh --workload rmat-rc --seed 1 --seconds 15 --trace 0
# Run from the repository root. Every build artefact, the Go build cache
# and the engine's spill files stay under .bench_build/ in that root.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && TMPDIR=$out/tmp go build -o "$out/perfbench" .)
# Spill files of the memory-bounded workload go under TMPDIR too.
export TMPDIR=$out/tmp
exec "$out/perfbench" "$@"
