#!/usr/bin/env bash
# End-to-end smoke test of the varbuf-serve daemon (CI's server check):
# start a daemon, send a malformed probe plus a real benchmark request
# on the same connection, verify the saved buffering and the stats
# counters, then drain and check the daemon's own exit status.
set -ueo pipefail
cd "$(dirname "$0")/.."

dune build bin/serve_main.exe
BIN=_build/default/bin/serve_main.exe

SOCK="${TMPDIR:-/tmp}/varbuf-smoke-$$.sock"
BUF="${TMPDIR:-/tmp}/varbuf-smoke-$$.buf"
trap 'rm -f "$SOCK" "$BUF"' EXIT

"$BIN" start --socket "$SOCK" --jobs 2 &
SERVER=$!

for _ in $(seq 1 100); do [ -S "$SOCK" ] && break; sleep 0.1; done
[ -S "$SOCK" ] || { echo "FAIL: server socket never appeared"; exit 1; }

# One connection: a malformed request (must be answered with a parse
# error while the connection keeps serving) followed by a real request
# that must produce a parseable buffering within the deadline.
out=$("$BIN" request --socket "$SOCK" --bench r1 --algo wid --rule 2p \
  --deadline-ms 120000 --probe-malformed --save-buffering "$BUF")
echo "$out"
grep -q "probe: error code=parse" <<<"$out"
grep -q "wid/2p: buffers=" <<<"$out"
head -1 "$BUF" | grep -q "# varbuf buffering v1"

stats=$("$BIN" stats --socket "$SOCK")
grep -qx "requests 2" <<<"$stats"
grep -qx "ok 1" <<<"$stats"
grep -qx "error_parse 1" <<<"$stats"
grep -q "^latency_ms_bucket " <<<"$stats"

"$BIN" shutdown --socket "$SOCK"
wait "$SERVER"
[ ! -e "$SOCK" ] || { echo "FAIL: socket not removed on shutdown"; exit 1; }

# ---- sharded cluster: router + 2 workers, Unix socket + TCP ----
# The same net requested through the router's Unix socket and over TCP
# must produce identical bufferings.  Sent one after the other, the
# second is a replay: the router's front answers it from the cluster's
# one response cache, without reaching a worker.
CSOCK="${TMPDIR:-/tmp}/varbuf-smoke-cluster-$$.sock"
BUF1="${TMPDIR:-/tmp}/varbuf-smoke-$$.buf1"
BUF2="${TMPDIR:-/tmp}/varbuf-smoke-$$.buf2"
PORT=$(( 20000 + RANDOM % 20000 ))
trap 'rm -f "$SOCK" "$BUF" "$CSOCK" "$CSOCK".shard* "$BUF1" "$BUF2"' EXIT

"$BIN" cluster --socket "$CSOCK" --shards 2 --jobs-per-shard 2 --tcp "$PORT" &
CLUSTER=$!

for _ in $(seq 1 100); do [ -S "$CSOCK" ] && break; sleep 0.1; done
[ -S "$CSOCK" ] || { echo "FAIL: cluster socket never appeared"; exit 1; }

# The router's socket appears before its links to the workers are up,
# and until a shard links, requests homed there go to the other one.
# Wait for a ready link to each worker, so every request below that
# finds its home idle is served there.
linked() {
  local s
  s=$("$BIN" stats --socket "$CSOCK") || return 1
  grep -q "^cluster_shard_1_links " <<<"$s" \
    && ! grep -qE "^cluster_shard_[01]_links 0$" <<<"$s"
}
for _ in $(seq 1 100); do linked && break; sleep 0.05; done
linked || { echo "FAIL: router never linked to both workers"; exit 1; }

"$BIN" request --socket "$CSOCK" --bench r1 --algo wid --rule 2p \
  --deadline-ms 120000 --save-buffering "$BUF1" >/dev/null
"$BIN" request --tcp "$PORT" --bench r1 --algo wid --rule 2p \
  --deadline-ms 120000 --save-buffering "$BUF2" >/dev/null
cmp "$BUF1" "$BUF2" \
  || { echo "FAIL: Unix-socket and TCP bufferings differ"; exit 1; }

# The same pair again in sample mode: the sampling-based yield engine
# served through the router, Unix socket vs TCP, must agree byte for
# byte and report its sampled yield figures.
sout=$("$BIN" request --socket "$CSOCK" --sinks 12 --seed 5 \
  --algo wid --samples 128 --deadline-ms 120000 --save-buffering "$BUF1")
echo "$sout" | grep -q "sampled driver RAT (K=128)" \
  || { echo "FAIL: Unix-socket sample response missing sampled line"; exit 1; }
"$BIN" request --tcp "$PORT" --sinks 12 --seed 5 \
  --algo wid --samples 128 --deadline-ms 120000 --save-buffering "$BUF2" \
  | grep -q "sampled driver RAT (K=128)" \
  || { echo "FAIL: TCP sample response missing sampled line"; exit 1; }
cmp "$BUF1" "$BUF2" \
  || { echo "FAIL: sample-mode Unix-socket and TCP bufferings differ"; exit 1; }

# The second request of each Unix-socket/TCP pair above is a replay,
# answered by the router's response cache: the router's own stats
# prove it.  The workers keep no cache at all: they count no hits and
# report no tape_* lines.
rstats=$("$BIN" stats --socket "$CSOCK")
hits=$(awk '$1 == "cache_hits" { print $2 }' <<<"$rstats")
[ "${hits:-0}" -ge 2 ] \
  || { echo "FAIL: ${hits:-0} router cache hits after two replays, expected 2"; exit 1; }
for ws in "$CSOCK".shard*; do
  wstats=$("$BIN" stats --socket "$ws")
  if grep -q "^tape_" <<<"$wstats"; then
    echo "FAIL: worker stats report a tape cache"; exit 1
  fi
  grep -qx "cache_hits 0" <<<"$wstats" \
    || { echo "FAIL: worker $ws reports cache hits"; exit 1; }
done

# A concurrent pair: one net over the Unix socket and over TCP at once.
# Whichever arrives second may find its home busy and go to the idle
# worker; the two bufferings must still agree byte for byte.
"$BIN" request --socket "$CSOCK" --sinks 120 --seed 9 --algo wid --rule 2p \
  --deadline-ms 120000 --save-buffering "$BUF1" >/dev/null &
REQ1=$!
"$BIN" request --tcp "$PORT" --sinks 120 --seed 9 --algo wid --rule 2p \
  --deadline-ms 120000 --save-buffering "$BUF2" >/dev/null &
REQ2=$!
wait "$REQ1"
wait "$REQ2"
cmp "$BUF1" "$BUF2" \
  || { echo "FAIL: concurrent Unix-socket and TCP bufferings differ"; exit 1; }

cstats=$("$BIN" stats --tcp "$PORT" --socket "$CSOCK")
grep -qx "cluster_shards 2" <<<"$cstats"
grep -qx "ok 6" <<<"$cstats"
grep -q "^kind_request 6" <<<"$cstats"
grep -q "^cluster_spilled " <<<"$cstats"
grep -q "^cluster_shard_0_links " <<<"$cstats"
# The router's one cache is the response cache: no cluster_v1/v2
# request-cache lines.
if grep -qE "^cluster_v[12]_cache_" <<<"$cstats"; then
  echo "FAIL: router stats report a request cache"; exit 1
fi

# A Monte-Carlo request above the request head's cap of 10^6 trials:
# the router refuses it from the head alone (a parse error, client
# exit 1) rather than forwarding it to a worker.
status=0
err=$("$BIN" request --socket "$CSOCK" --sinks 16 --seed 3 --algo wid \
  --rule 2p --mc 2000000 --deadline-ms 500 2>&1 >/dev/null) || status=$?
[ "$status" -eq 1 ] && grep -q "code=parse" <<<"$err" \
  || { echo "FAIL: request --mc 2000000 exited $status ($err), expected a parse error"; exit 1; }

# There is one wire encoding: --wire is an unknown option (cmdliner's
# exit 124), even against the live cluster a request would reach (a
# failed connect exits 1).
status=0
"$BIN" request --socket "$CSOCK" --wire v1 --bench r1 >/dev/null 2>&1 \
  || status=$?
[ "$status" -eq 124 ] \
  || { echo "FAIL: request --wire v1 exited $status, expected 124"; exit 1; }

"$BIN" shutdown --socket "$CSOCK"
wait "$CLUSTER"
[ ! -e "$CSOCK" ] || { echo "FAIL: cluster socket not removed"; exit 1; }
[ -z "$(ls "$CSOCK".shard* 2>/dev/null)" ] \
  || { echo "FAIL: shard sockets not removed"; exit 1; }

# The removed router cache option is an unknown option now.
if timeout 10 "$BIN" cluster --socket "$CSOCK.x" --v1-cache 4 >/dev/null 2>&1
then
  echo "FAIL: cluster accepted --v1-cache"; exit 1
fi

# So is the removed tape cache's capacity, on both serving commands
# (cmdliner's exit 124; a daemon that started would drain on the
# timeout's SIGTERM and exit 0).
for cmd in start cluster; do
  status=0
  timeout --preserve-status 10 "$BIN" "$cmd" --socket "$CSOCK.x" \
    --tape-entries 4 >/dev/null 2>&1 || status=$?
  [ "$status" -eq 124 ] \
    || { echo "FAIL: $cmd --tape-entries exited $status, expected 124"; exit 1; }
done

echo "smoke_serve: all checks passed"
