#!/bin/sh
# CI smoke for the `campion serve` daemon: start it on the address the
# README's operations guide documents, run the README's own curl
# examples verbatim against it (every `^curl` line in the "Pushing
# snapshots" section executes here, so the docs stay honest), then push
# a single-device edit and assert the audit was incremental — the
# re-diff ratio scraped from /metrics must be strictly below 100%.
set -eu

cd "$(dirname "$0")/.."
repo="$(pwd)"

work="$(mktemp -d)"
trap 'rm -rf "$work"; [ -n "${SERVE_PID:-}" ] && kill "$SERVE_PID" 2>/dev/null || true' EXIT

go build -o "$work/campion" ./cmd/campion

# Four distinct routers: different policies so each is its own semantic
# class, which makes the incremental-vs-full distinction visible (an
# edit to one of four classes re-diffs 3 of 6 representative pairs).
for i in 1 2 3 4; do
    cat > "$work/r$i.cfg" <<EOF
hostname r$i
ip prefix-list NETS permit 10.$i.0.0/16 le 24
route-map IMPORT permit 10
 match ip address NETS
 set local-preference 1${i}0
route-map IMPORT deny 20
router bgp 65001
 neighbor 10.0.$i.2 remote-as 6510$i
 neighbor 10.0.$i.2 route-map IMPORT in
EOF
done

"$work/campion" serve -addr 127.0.0.1:9090 > "$work/serve.log" 2>&1 &
SERVE_PID=$!
for i in $(seq 1 50); do
    curl -sf http://127.0.0.1:9090/healthz >/dev/null 2>&1 && break
    sleep 0.2
done
curl -sf http://127.0.0.1:9090/healthz >/dev/null || {
    echo "FAIL: daemon did not come up" >&2; cat "$work/serve.log" >&2; exit 1
}

# The README's own curl examples, extracted and executed verbatim from
# the work directory (they reference r1.cfg / r2.cfg relative paths).
cd "$work"
readme_curls="$work/readme_curls.sh"
grep '^curl ' "$repo/README.md" > "$readme_curls"
if [ "$(wc -l < "$readme_curls")" -lt 4 ]; then
    echo "FAIL: expected at least 4 curl examples in README.md, got:" >&2
    cat "$readme_curls" >&2
    exit 1
fi
echo "serve smoke: running $(wc -l < "$readme_curls") README curl examples"
sh -e "$readme_curls" > "$work/readme_curls.out"

# Seed the remaining devices, then the incremental edit: one appended
# static route on r1.
curl -sf --data-binary @r3.cfg http://127.0.0.1:9090/snapshot/r3 >/dev/null
curl -sf --data-binary @r4.cfg http://127.0.0.1:9090/snapshot/r4 >/dev/null
echo 'ip route 10.99.0.0 255.255.255.0 10.0.1.254' >> r1.cfg
edit_resp="$(curl -sf --data-binary @r1.cfg http://127.0.0.1:9090/snapshot/r1)"
echo "edit response: $edit_resp"
case "$edit_resp" in
    *'"op": "ingest"'*) ;;
    *) echo "FAIL: edited push was not ingested" >&2; exit 1 ;;
esac

# The edit leaves r1's route maps and ACLs alone, and earlier audits
# already compared them with every other router's, so the re-diffed
# pairs recall both semantic components from the component memo and
# compute none.
recalled="$(printf '%s\n' "$edit_resp" | sed -n 's/.*"components_recalled": \([0-9]*\).*/\1/p')"
computed="$(printf '%s\n' "$edit_resp" | sed -n 's/.*"components_computed": \([0-9]*\).*/\1/p')"
echo "serve smoke: post-edit components ${recalled:-?} recalled, ${computed:-?} computed"
if [ "$computed" != 0 ] || [ -z "$recalled" ] || [ "$recalled" -eq 0 ]; then
    echo "FAIL: the static-route edit must recall every route-map and ACL comparison and compute none" >&2
    exit 1
fi

# The daemon's core promise: the post-edit audit re-diffed strictly
# fewer representative pairs than it needed — scraped from the session
# metrics, not inferred.
ratio="$(curl -sf http://127.0.0.1:9090/metrics \
    | awk '$1 == "campion_session_rediff_ratio_percent" { print $2 }')"
echo "serve smoke: post-edit re-diff ratio ${ratio}%"
if [ -z "$ratio" ]; then
    echo "FAIL: campion_session_rediff_ratio_percent missing from /metrics" >&2
    exit 1
fi
if [ "$ratio" -ge 100 ] || [ "$ratio" -le 0 ]; then
    echo "FAIL: re-diff ratio ${ratio}% not strictly between 0 and 100 — the audit was not incremental" >&2
    curl -sf http://127.0.0.1:9090/metrics | grep campion_session >&2 || true
    exit 1
fi

# The edit is visible in the report, and the fleet reflects all four
# devices.
curl -sf http://127.0.0.1:9090/report/r1/r2 | grep -q '10.99.0.0' || {
    echo "FAIL: pushed edit not visible in /report/r1/r2" >&2; exit 1
}
curl -sf http://127.0.0.1:9090/fleet | grep -c '"name"' | grep -qx 4 || {
    echo "FAIL: /fleet does not list 4 devices" >&2; exit 1
}

kill "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""
echo "serve smoke: OK"
