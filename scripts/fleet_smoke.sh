#!/bin/sh
# CI smoke for the fleet-scale path: generate a 200-device fleet, audit
# it cold and warm through one -cache-dir, and assert the properties the
# clustering + cache design promises — far fewer semantic classes than
# devices, mirrored representative pairs diffed in one joint pass, and a
# warm rerun at least 5x faster than cold. The cold
# run records a flight-recorder journal, which `campion report` must
# replay into a deterministic summary and a valid Chrome trace.
#
# Set FLEET_SMOKE_ARTIFACTS to a directory to keep the journal, the
# report, and the trace after the run (CI uploads them).
set -eu

cd "$(dirname "$0")/.."

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

go build -o "$work/campion" ./cmd/campion
go build -o "$work/fleetgen" ./cmd/fleetgen
# One template: the §5.1 scenario (all devices expected identical, a
# few drifted), so the audit cost is parsing + hashing + a handful of
# representative diffs rather than rendering thousands of reports.
"$work/fleetgen" -n 200 -templates 1 -mutate 0.02 -seed 1 -out "$work/fleet"

t0=$(date +%s%N)
"$work/campion" -all -cache-dir "$work/cache" -stats -journal "$work/run.jsonl" "$work/fleet" \
    > "$work/cold.out" 2> "$work/cold.err" || true
cold_ms=$((($(date +%s%N) - t0) / 1000000))

t0=$(date +%s%N)
"$work/campion" -all -cache-dir "$work/cache" -stats "$work/fleet" \
    > "$work/warm.out" 2> "$work/warm.err" || true
warm_ms=$((($(date +%s%N) - t0) / 1000000))

classes=$(sed -n 's/.*classes: \([0-9]*\).*/\1/p' "$work/cold.err" | head -1)
mirrored=$(sed -n 's/.* \([0-9]*\) of them mirrored.*/\1/p' "$work/cold.err" | head -1)
echo "fleet smoke: 200 devices, $classes classes, ${mirrored:-?} rep pairs mirrored, cold ${cold_ms}ms, warm ${warm_ms}ms"

if [ -z "$classes" ] || [ "$classes" -ge 200 ]; then
    echo "FAIL: expected semantic clustering to find fewer classes than devices" >&2
    exit 1
fi
# Each mutant class is needed in both orientations against the template
# class, so the cold run must diff those pairs jointly.
if [ -z "$mirrored" ] || [ "$mirrored" -eq 0 ]; then
    echo "FAIL: cold run mirrored no representative pair" >&2
    sed -n '/--- fleet ---/,$p' "$work/cold.err" >&2
    exit 1
fi
if ! cmp -s "$work/cold.out" "$work/warm.out"; then
    echo "FAIL: warm rerun output differs from cold run" >&2
    exit 1
fi
if ! grep -q 'parses avoided: 200' "$work/warm.err"; then
    echo "FAIL: warm rerun did not skip parsing" >&2
    sed -n '/--- fleet ---/,$p' "$work/warm.err" >&2
    exit 1
fi
if [ "$((warm_ms * 5))" -gt "$cold_ms" ]; then
    echo "FAIL: warm rerun (${warm_ms}ms) not >=5x faster than cold (${cold_ms}ms)" >&2
    exit 1
fi

# Flight-recorder replay: the journal must exist, report deterministically,
# export a valid Chrome trace, and agree with the run it recorded.
if [ ! -s "$work/run.jsonl" ]; then
    echo "FAIL: -journal wrote no flight-recorder file" >&2
    exit 1
fi
"$work/campion" report -trace "$work/trace.json" "$work/run.jsonl" > "$work/report1.txt"
"$work/campion" report "$work/run.jsonl" > "$work/report2.txt"
if ! cmp -s "$work/report1.txt" "$work/report2.txt"; then
    echo "FAIL: campion report is not deterministic over the same journal" >&2
    exit 1
fi
if ! grep -q 'status: complete' "$work/report1.txt"; then
    echo "FAIL: report does not mark the recorded run complete" >&2
    cat "$work/report1.txt" >&2
    exit 1
fi
if ! grep -q "clustering: 200 devices -> $classes classes" "$work/report1.txt"; then
    echo "FAIL: report clustering disagrees with the run (wanted 200 -> $classes)" >&2
    cat "$work/report1.txt" >&2
    exit 1
fi
if grep -q 'consistency: .*reconciled\|consistency: .*over-published' "$work/report1.txt"; then
    echo "FAIL: incremental metrics publication disagreed with final stats" >&2
    grep 'consistency:' "$work/report1.txt" >&2
    exit 1
fi
# Chrome trace_event JSON is an array; json.tool rejects torn output.
if ! python3 -m json.tool "$work/trace.json" > /dev/null 2>&1; then
    echo "FAIL: exported Chrome trace is not valid JSON" >&2
    exit 1
fi
echo "fleet smoke: journal replay OK ($(wc -l < "$work/run.jsonl") events)"

if [ -n "${FLEET_SMOKE_ARTIFACTS:-}" ]; then
    mkdir -p "$FLEET_SMOKE_ARTIFACTS"
    cp "$work/run.jsonl" "$work/report1.txt" "$work/trace.json" "$FLEET_SMOKE_ARTIFACTS/"
fi
echo "fleet smoke: OK"
