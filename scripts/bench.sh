#!/bin/sh
# bench.sh — run the committed benchmark set and snapshot or gate it.
#
#   scripts/bench.sh         # refresh BENCH_duetsim.json from a fresh run
#   scripts/bench.sh check   # fail if the fresh run regresses >30% ns/op
#
# The set covers the two layers PERF.md tracks: the sim-kernel hot path
# (engine scheduling, clock ticks, same-instant bursts, thread wakeups)
# and the serve studies on both execution backends — the 1M runs over a
# pre-drawn stream plus the 100M-job generator-fed capacity run.
# -benchtime 1x on the serve benches: one deterministic run is the
# measurement, iterating it would only multiply CI time.
set -eu
cd "$(dirname "$0")/.."

run_benches() {
    go test -run '^$' -bench 'BenchmarkEngineSchedule$|BenchmarkEngineClockTicks$|BenchmarkEngineSameInstantBurst$|BenchmarkThreadPingPong$' -benchtime 200000x ./internal/sim
    go test -run '^$' -bench 'BenchmarkServeModel1M$|BenchmarkServeModel100M$|BenchmarkServeStream1M$|BenchmarkServeFaultFree$|BenchmarkServeRecovery$' -benchtime 1x -timeout 30m .
}

case "${1:-snapshot}" in
snapshot)
    run_benches | go run ./cmd/benchsnap -out BENCH_duetsim.json
    ;;
check)
    run_benches | go run ./cmd/benchsnap -check BENCH_duetsim.json
    ;;
*)
    echo "usage: scripts/bench.sh [snapshot|check]" >&2
    exit 2
    ;;
esac
