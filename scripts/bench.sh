#!/bin/sh
# Run the parallel-engine benchmark sweep and record the results as JSON.
#
# Usage: scripts/bench.sh [extra go-test args...]
#
# Writes BENCH_<yyyy-mm-dd>.json in the repo root: one object per
# benchmark with its sub-case (workers=N, cache=on/off, obs=on/off),
# ns/op, and iteration count, plus the host parameters needed to
# interpret the sweep (CPU count matters: on a single core every pool
# size degenerates to the sequential schedule).
set -eu

cd "$(dirname "$0")/.."

date="$(date +%Y-%m-%d)"
out="BENCH_${date}.json"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

go test -run '^$' -bench 'BenchmarkParallelRouteMapDiff|BenchmarkDiffBatch|BenchmarkFullPairDiff|BenchmarkDiffAllFleet|BenchmarkDiffObservability|BenchmarkSemanticDiffRouteMap300|BenchmarkSemanticDiffRouteMap10000|BenchmarkRouteEncodingBuild|BenchmarkIntraPairACL10000|BenchmarkFleetAudit|BenchmarkRepairFigure1' \
    -benchmem -benchtime "${BENCHTIME:-2s}" "$@" . | tee "$raw"

awk -v date="$date" '
BEGIN { n = 0 }
/^cpu:/    { sub(/^cpu: */, ""); cpu = $0 }
/^goos:/   { goos = $2 }
/^goarch:/ { goarch = $2 }
/^Benchmark/ {
    name = $1
    iters = $2
    nsop = $3
    workers = 0
    if (match(name, /workers=[0-9]+/)) {
        workers = substr(name, RSTART + 8, RLENGTH - 8) + 0
    }
    # strip the -<GOMAXPROCS> suffix go test appends
    sub(/-[0-9]+$/, "", name)
    # the sub-benchmark case, e.g. workers=4, cache=off, obs=on
    subcase = ""
    if (match(name, /\//)) {
        subcase = substr(name, RSTART + 1)
    }
    bytes = ""; allocs = ""
    for (i = 4; i <= NF; i++) {
        if ($(i) == "B/op") bytes = $(i - 1)
        if ($(i) == "allocs/op") allocs = $(i - 1)
    }
    line = sprintf("    {\"name\": \"%s\", \"case\": \"%s\", \"workers\": %d, \"iterations\": %s, \"ns_per_op\": %s", \
                   name, subcase, workers, iters, nsop)
    if (bytes != "")  line = line sprintf(", \"bytes_per_op\": %s", bytes)
    if (allocs != "") line = line sprintf(", \"allocs_per_op\": %s", allocs)
    line = line "}"
    results[n++] = line
}
END {
    printf "{\n"
    printf "  \"date\": \"%s\",\n", date
    printf "  \"goos\": \"%s\",\n", goos
    printf "  \"goarch\": \"%s\",\n", goarch
    printf "  \"cpu\": \"%s\",\n", cpu
    printf "  \"benchmarks\": [\n"
    for (i = 0; i < n; i++) printf "%s%s\n", results[i], (i < n - 1 ? "," : "")
    printf "  ]\n"
    printf "}\n"
}' "$raw" > "$out"

echo "wrote $out"
