#!/usr/bin/env bash
# Builds the benchmark and the seqserver binary from the source tree it
# sits in, then runs one benchmark workload:
#
#     bash perfbench/run.sh --workload gaode-1m-lora --seed 1 --seconds 45 --trace 0
#
# Build output, the Go build cache and run records all stay under
# .bench_build/ at the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
# Every Go cache and config directory is pointed inside .bench_build, and
# the toolchain may fetch nothing: the module has no dependencies outside
# this source tree.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
    GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off
(cd perfbench && go build -o "$out/bin/perfbench" . && go build -o "$out/bin/seqserver" spatialseq/cmd/seqserver) >&2
exec "$out/bin/perfbench" --seqserver "$out/bin/seqserver" --out "$out/perfbench" "$@"
