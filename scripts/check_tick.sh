#!/usr/bin/env bash
# Runaway-job smoke over real sockets: a tick executes its jobs with no
# portal lock held. Boot the portal, time one POST /api/run of
# `fn main() { while (true) {} }` to its 10M-instruction budget, submit
# that program as enough jobs (4 to 64) for one tick to run them for about
# a second, start POST /api/tick in the background, and while that tick is
# still running require /api/health and /api/whoami to answer in under
# 50 ms each.
#
# Usage: check_tick.sh [port]    (default 8147)
set -euo pipefail

port="${1:-8147}"
base="http://127.0.0.1:$port"
tick_s=1.0
limit_s=0.050
server_pid=""
tick_pid=""
cleanup() {
    if [ -n "$tick_pid" ]; then
        kill "$tick_pid" 2>/dev/null || true
    fi
    if [ -n "$server_pid" ]; then
        kill -9 "$server_pid" 2>/dev/null || true
    fi
}
trap cleanup EXIT

cargo build --release --example portal_server
target/release/examples/portal_server "$port" &
server_pid=$!

for _ in $(seq 1 60); do
    if curl -sf "$base/api/health" >/dev/null 2>&1; then
        break
    fi
    sleep 1
done

tok="$(curl -sf -X POST "$base/api/login" \
    --data-binary '{"user":"demo","password":"demo-pass-99"}' \
    | sed -nE 's/.*"token":"([^"]+)".*/\1/p')"
if [ -z "$tok" ]; then
    echo "FAIL: could not log in" >&2
    exit 1
fi

printf 'fn main() { while (true) {} }' \
    | curl -sf -X POST "$base/api/file?path=spin.mini" \
        -H "Cookie: sid=$tok" --data-binary @- >/dev/null
art="$(curl -sf -X POST "$base/api/compile?path=spin.mini" \
    -H "Cookie: sid=$tok" | sed -nE 's/.*"artifact":"([^"]+)".*/\1/p')"
if [ -z "$art" ]; then
    echo "FAIL: the spinning program did not compile" >&2
    exit 1
fi
run_out="$(mktemp)"
run_s="$(curl -s -o "$run_out" -w '%{time_total}' -X POST "$base/api/run?artifact=$art" \
    -H "Cookie: sid=$tok")"
if ! grep -q budget "$run_out"; then
    echo "FAIL: /api/run of the spinning program did not end on its budget: $(cat "$run_out")" >&2
    exit 1
fi
rm -f "$run_out"
jobs="$(awk -v t="$run_s" -v want="$tick_s" \
    'BEGIN { n = int(want / t) + 1; if (n < 4) n = 4; if (n > 64) n = 64; print n }')"

first=""
for _ in $(seq 1 "$jobs"); do
    id="$(curl -sf -X POST "$base/api/jobs" -H "Cookie: sid=$tok" \
        --data-binary '{"artifact":"'"$art"'","cores":1,"estimated_ticks":1}' \
        | sed -nE 's/.*"job":([0-9]+).*/\1/p')"
    first="${first:-$id}"
done

tick_out="$(mktemp)"
curl -sf -X POST "$base/api/tick" -H "Cookie: sid=$tok" >"$tick_out" &
tick_pid=$!

# The tick dispatches the jobs first, then runs them; wait for dispatch.
for _ in $(seq 1 200); do
    state="$(curl -sf "$base/api/jobs/$first" -H "Cookie: sid=$tok" \
        | sed -nE 's/.*"state":"([^"]+)".*/\1/p')"
    if [ "$state" != "pending" ]; then
        break
    fi
done

health_s="$(curl -sf -o /dev/null -w '%{time_total}' "$base/api/health")"
whoami_s="$(curl -sf -o /dev/null -w '%{time_total}' -H "Cookie: sid=$tok" "$base/api/whoami")"
if ! kill -0 "$tick_pid" 2>/dev/null; then
    echo "FAIL: the tick returned before /api/health and /api/whoami answered" \
        "(they waited for it: ${health_s}s, ${whoami_s}s)" >&2
    exit 1
fi
for probe in "health $health_s" "whoami $whoami_s"; do
    set -- $probe
    if awk -v t="$2" -v l="$limit_s" 'BEGIN { exit !(t >= l) }'; then
        echo "FAIL: /api/$1 took ${2}s during a running tick (limit ${limit_s}s)" >&2
        exit 1
    fi
done

wait "$tick_pid"
tick_pid=""
if ! grep -q "\"dispatched\":\[$first" "$tick_out"; then
    echo "FAIL: the tick did not dispatch job $first: $(cat "$tick_out")" >&2
    exit 1
fi
stderr="$(curl -sf "$base/api/jobs/$first" -H "Cookie: sid=$tok" \
    | sed -nE 's/.*"stderr":"([^"]*)".*/\1/p')"
rm -f "$tick_out"
case "$stderr" in
*budget*) ;;
*)
    echo "FAIL: job $first did not end on its instruction budget: '$stderr'" >&2
    exit 1
    ;;
esac

echo "OK: /api/health ${health_s}s and /api/whoami ${whoami_s}s answered while a tick ran $jobs spinning jobs (one /api/run: ${run_s}s)"
