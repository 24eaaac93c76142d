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
# The same net requested through the v1 text protocol on the Unix
# socket and the v2 binary protocol over TCP must produce identical
# bufferings (the second answer comes from the worker's result cache,
# so this also covers the cache-hit path through the router).
dune build bin/loadgen_main.exe
LOADGEN=_build/default/bin/loadgen_main.exe

CSOCK="${TMPDIR:-/tmp}/varbuf-smoke-cluster-$$.sock"
BUF1="${TMPDIR:-/tmp}/varbuf-smoke-$$.buf1"
BUF2="${TMPDIR:-/tmp}/varbuf-smoke-$$.buf2"
PORT=$(( 20000 + RANDOM % 20000 ))
trap 'rm -f "$SOCK" "$BUF" "$CSOCK" "$CSOCK".shard* "$BUF1" "$BUF2"' EXIT

"$BIN" cluster --socket "$CSOCK" --shards 2 --jobs-per-shard 2 --tcp "$PORT" &
CLUSTER=$!

for _ in $(seq 1 100); do [ -S "$CSOCK" ] && break; sleep 0.1; done
[ -S "$CSOCK" ] || { echo "FAIL: cluster socket never appeared"; exit 1; }

"$BIN" request --socket "$CSOCK" --wire v1 --bench r1 --algo wid --rule 2p \
  --deadline-ms 120000 --save-buffering "$BUF1" >/dev/null
"$BIN" request --tcp "$PORT" --wire v2 --bench r1 --algo wid --rule 2p \
  --deadline-ms 120000 --save-buffering "$BUF2" >/dev/null
cmp "$BUF1" "$BUF2" || { echo "FAIL: v1 and v2 bufferings differ"; exit 1; }

# The same pair again in sample mode: the sampling-based yield engine
# served through the router, v1 text vs v2 binary, must agree byte for
# byte and report its sampled yield figures.
sout=$("$BIN" request --socket "$CSOCK" --wire v1 --sinks 12 --seed 5 \
  --algo wid --samples 128 --deadline-ms 120000 --save-buffering "$BUF1")
echo "$sout" | grep -q "sampled driver RAT (K=128)" \
  || { echo "FAIL: v1 sample response missing sampled line"; exit 1; }
"$BIN" request --tcp "$PORT" --wire v2 --sinks 12 --seed 5 \
  --algo wid --samples 128 --deadline-ms 120000 --save-buffering "$BUF2" \
  | grep -q "sampled driver RAT (K=128)" \
  || { echo "FAIL: v2 sample response missing sampled line"; exit 1; }
cmp "$BUF1" "$BUF2" \
  || { echo "FAIL: sample-mode v1 and v2 bufferings differ"; exit 1; }

# Same net, different rule: the rule is part of the response-cache key
# so the worker's result cache misses, but the compiled-tape cache is
# keyed by the topology digest alone — the r1 requests above already
# compiled this tree, so this request must be a tape hit (skipping
# the compile).  The workers' own stats prove it.
"$BIN" request --tcp "$PORT" --wire v2 --bench r1 --algo wid --rule det \
  --deadline-ms 120000 >/dev/null
thits=0
for ws in "$CSOCK".shard*; do
  wstats=$("$BIN" stats --socket "$ws")
  grep -q "^tape_entries " <<<"$wstats" \
    || { echo "FAIL: worker stats missing tape lines"; exit 1; }
  h=$(awk '$1 == "tape_hits" { print $2 }' <<<"$wstats")
  thits=$(( thits + ${h:-0} ))
done
[ "$thits" -ge 1 ] \
  || { echo "FAIL: no tape-cache hit after same-net replay"; exit 1; }

# A short closed-loop load through the router in v2 binary.
lg=$("$LOADGEN" --socket "$CSOCK" --wire v2 --connections 2 --requests 20 \
  --distinct 4 --sinks 12)
echo "$lg" | head -3
grep -q "^ok 20 " <<<"$lg"

cstats=$("$BIN" stats --tcp "$PORT" --wire v2 --socket "$CSOCK")
grep -qx "cluster_shards 2" <<<"$cstats"
grep -qx "ok 25" <<<"$cstats"
grep -q "^kind_request 25" <<<"$cstats"
grep -q "^cluster_shard_0_links " <<<"$cstats"
# The router keeps no request caches of its own.
if grep -qE "^cluster_v[12]_cache_" <<<"$cstats"; then
  echo "FAIL: router stats report a request cache"; exit 1
fi

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

echo "smoke_serve: all checks passed"
