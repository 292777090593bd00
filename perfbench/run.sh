#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash perfbench/run.sh --workload capacity-stream --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. The Go build cache, GOPATH, temporary
# files and the binary all go under .bench_build/ in that root, so the
# build writes nothing outside the checkout (the first build fills the
# cache; later ones reuse it).
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOTELEMETRY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
