#!/usr/bin/env bash
# Builds bixstore and the bixperf driver from the checkout this script sits
# in, then runs the driver with the given arguments, e.g.
#
#   bash bixperf/run.sh --workload tbl-roaring-lex-1m --seed 1 --seconds 45 --trace 0
#
# Everything it writes (Go build cache, binaries, inputs, indexes, spans)
# stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
go build -o "$out/bixstore" ./cmd/bixstore
(cd bixperf && go build -o "$out/bixperf" .)
exec "$out/bixperf" -bixstore "$out/bixstore" -work "$out/work" "$@"
