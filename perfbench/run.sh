#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it from the
# repository root:
#
#   bash perfbench/run.sh --workload crowd --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write (Go build cache, binary, WAL
# directories, span and ledger files) stays under .bench_build/perfbench.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOENV=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
