#!/usr/bin/env bash
# Crash-recovery smoke: boot a durable portal on a tempdir WAL, write a
# marker file, submit a cluster job and upload more files than one snapshot
# interval over HTTP, kill -9 the server (no clean shutdown, no final
# flush), restart it on the same data dir, and verify over HTTP that
#   1. the restarted portal reports durable=true with no WAL error,
#   2. /api/health carries the journal's recovery report, seeded from a
#      snapshot and with a replayed tail,
#   3. the marker file written before the crash reads back byte-identical,
#      and so does the last uploaded file,
#   4. the submitted job is still known to the recovered distributor.
#
# Usage: check_recovery.sh [port]    (default 8143)
set -euo pipefail

port="${1:-8143}"
base="http://127.0.0.1:$port"
data="$(mktemp -d)"
form="$(mktemp)"
server_pid=""
cleanup() {
    if [ -n "$server_pid" ]; then
        kill -9 "$server_pid" 2>/dev/null || true
    fi
    rm -rf "$data" "$form"
}
trap cleanup EXIT

# Run the example binary directly (not through `cargo run`) so kill -9
# hits the server itself rather than a cargo wrapper that would orphan it.
cargo build --release --example portal_server
server=target/release/examples/portal_server

wait_up() {
    for _ in $(seq 1 60); do
        if curl -sf "$base/api/health" >/dev/null 2>&1; then
            return 0
        fi
        sleep 1
    done
    echo "FAIL: portal did not come up on :$port" >&2
    exit 1
}

login() {
    curl -sf -X POST "$base/api/login" \
        --data-binary '{"user":"admin","password":"change-me-please"}' \
        | sed -nE 's/.*"token":"([^"]+)".*/\1/p'
}

# ---- first life: write a marker the scripted demo workload never touches ---
CCP_DATA_DIR="$data" "$server" "$port" &
server_pid=$!
wait_up
tok="$(login)"
if [ -z "$tok" ]; then
    echo "FAIL: could not log in before the crash" >&2
    exit 1
fi
marker="survived-the-crash-$$"
printf '%s' "$marker" \
    | curl -sf -X POST "$base/api/file?path=marker.txt" \
        -H "Cookie: sid=$tok" --data-binary @- >/dev/null

# Exercise the sched log too: compile and submit a real cluster job.
printf 'fn main() { println(7); }' \
    | curl -sf -X POST "$base/api/file?path=smoke.mini" \
        -H "Cookie: sid=$tok" --data-binary @- >/dev/null
art="$(curl -sf -X POST "$base/api/compile?path=smoke.mini" \
    -H "Cookie: sid=$tok" | sed -nE 's/.*"artifact":"([^"]+)".*/\1/p')"
job="$(curl -sf -X POST "$base/api/jobs" -H "Cookie: sid=$tok" \
    --data-binary '{"artifact":"'"$art"'","cores":1,"estimated_ticks":50}' \
    | sed -nE 's/.*"job":([0-9]+).*/\1/p')"
if [ -z "$job" ]; then
    echo "FAIL: could not submit a job before the crash" >&2
    exit 1
fi
curl -sf -X POST "$base/api/tick" -H "Cookie: sid=$tok" >/dev/null

# One multipart upload of more files than the snapshot interval (1024
# records), so the journal compacts and the restart recovers from a
# snapshot plus a tail.
uploads=1100
for i in $(seq 1 "$uploads"); do
    printf -- '--XYZ\r\nContent-Disposition: form-data; name="f"; filename="u%d.txt"\r\n\r\nupload %d\r\n' "$i" "$i"
done >"$form"
printf -- '--XYZ--\r\n' >>"$form"
curl -sf -X POST "$base/api/upload" -H "Cookie: sid=$tok" \
    -H "Content-Type: multipart/form-data; boundary=XYZ" \
    --data-binary @"$form" >/dev/null

# ---- crash: SIGKILL, so nothing gets a chance to flush or shut down ------
kill -9 "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=""

# ---- second life: same data dir; recovery must replay the log ------------
CCP_DATA_DIR="$data" "$server" "$port" &
server_pid=$!
wait_up

health="$(curl -sf "$base/api/health")"
if ! printf '%s' "$health" | grep -q '"durable":true'; then
    echo "FAIL: restarted portal is not durable: $health" >&2
    exit 1
fi
if ! printf '%s' "$health" | grep -q '"wal_error":null'; then
    echo "FAIL: restarted portal reports a WAL error: $health" >&2
    exit 1
fi
# The one recovery report: a snapshot LSN, and records replayed after it.
snapshot_lsn="$(printf '%s' "$health" \
    | sed -nE 's/.*"recovery":\{[^}]*"snapshot_lsn":([0-9]+).*/\1/p')"
if [ -z "$snapshot_lsn" ]; then
    echo "FAIL: recovery did not start from a snapshot: $health" >&2
    exit 1
fi
replayed="$(printf '%s' "$health" \
    | sed -nE 's/.*"recovery":\{[^}]*"records_replayed":([0-9]+).*/\1/p')"
if [ -z "$replayed" ] || [ "$replayed" -eq 0 ]; then
    echo "FAIL: no records replayed after the snapshot: $health" >&2
    exit 1
fi

tok="$(login)"
job_state="$(curl -sf "$base/api/jobs/$job" -H "Cookie: sid=$tok" \
    | sed -nE 's/.*"state":"([^"]+)".*/\1/p')"
if [ -z "$job_state" ]; then
    echo "FAIL: job $job vanished across the crash" >&2
    exit 1
fi
got="$(curl -sf "$base/api/file?path=marker.txt" -H "Cookie: sid=$tok")"
if [ "$got" != "$marker" ]; then
    echo "FAIL: marker file did not survive the crash" >&2
    echo "  wrote: $marker" >&2
    echo "  read:  $got" >&2
    exit 1
fi
last="$(curl -sf "$base/api/file?path=u$uploads.txt" -H "Cookie: sid=$tok")"
if [ "$last" != "upload $uploads" ]; then
    echo "FAIL: last uploaded file did not survive the crash: '$last'" >&2
    exit 1
fi

echo "OK: killed -9 and recovered from the snapshot at LSN $snapshot_lsn plus $replayed records, marker and uploads intact, job $job is '$job_state'"
