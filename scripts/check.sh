#!/usr/bin/env sh
# Full local gate: release build, tests, lints, formatting.
# Offline-safe: the workspace vendors its few dev-dependencies, so no
# network or registry access is needed.
set -eu
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --check

# Static analysis gate: every example program must lint without errors
# (warnings are fine — singleton variables are idiomatic in existential
# queries), and every optimization run on them must survive translation
# validation with zero unjustified deletions.
./target/release/xdl lint examples/data/*.dl
./target/release/xdl verify-opt examples/data/*.dl > /dev/null
echo "check.sh: lint + verify-opt ok"

# The intentionally-broken fixtures must keep failing loudly (exit 1).
if ./target/release/xdl lint tests/lint/unsafe_rule.dl tests/lint/dead_code.dl \
    > /dev/null 2>&1; then
    echo "check.sh: broken lint fixtures did not fail" >&2
    exit 1
fi
echo "check.sh: broken fixtures still caught"

# Derivation-bound gate: the examples must stay warning-free even with
# the bound lints made binding, and the bounds table must render for
# each of them.
./target/release/xdl lint examples/data/*.dl --bounds --deny-warnings > /dev/null
# The bound fixtures are warning-only: advisory by default, fatal under
# --deny-warnings.
./target/release/xdl lint tests/lint/cartesian.dl tests/lint/unbounded.dl \
    > /dev/null
if ./target/release/xdl lint tests/lint/cartesian.dl tests/lint/unbounded.dl \
    --deny-warnings > /dev/null 2>&1; then
    echo "check.sh: bound fixtures did not fail under --deny-warnings" >&2
    exit 1
fi
echo "check.sh: derivation-bound gate ok"

# Server smoke: serve on an ephemeral port, answer one query byte-identically
# to `xdl run`, shut down cleanly.
smoke_dir=$(mktemp -d)
serve_pid=""
cleanup() {
    [ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null || true
    rm -rf "$smoke_dir"
}
trap cleanup EXIT
# start_server <outfile> <args...>: spawn `xdl serve --port 0 <args...>`
# with stdout to <outfile>, set serve_pid, and poll up to 5 s for the
# announced address into addr. Fails if none appears; each caller names
# its server in the error.
start_server() {
    serve_out=$1
    shift
    ./target/release/xdl serve --port 0 "$@" > "$serve_out" &
    serve_pid=$!
    addr=""
    for _ in $(seq 1 50); do
        addr=$(sed -n 's/^listening on //p' "$serve_out")
        [ -n "$addr" ] && return 0
        sleep 0.1
    done
    return 1
}
printf 'a(X, Y) :- p(X, Z), a(Z, Y).\na(X, Y) :- p(X, Y).\np(1, 2).\np(2, 3).\n' \
    > "$smoke_dir/tc.dl"
{ cat "$smoke_dir/tc.dl"; printf '?- a(X, _).\n'; } > "$smoke_dir/run.dl"

start_server "$smoke_dir/serve.out" --threads 2 \
    || { echo "check.sh: server did not announce its address" >&2; exit 1; }
./target/release/xdl query --connect "$addr" --load "$smoke_dir/tc.dl" \
    '?- a(X, _).' > "$smoke_dir/served.out"
./target/release/xdl run "$smoke_dir/run.dl" > "$smoke_dir/ran.out"
if ! cmp -s "$smoke_dir/served.out" "$smoke_dir/ran.out"; then
    echo "check.sh: served answer differs from xdl run:" >&2
    diff "$smoke_dir/served.out" "$smoke_dir/ran.out" >&2 || true
    exit 1
fi
# Telemetry smoke: scrape METRICS off the live server and sanity-check
# the Prometheus exposition (the full format parser runs in the metrics
# test suite below; this catches a server that stopped announcing).
./target/release/xdl metrics --connect "$addr" > "$smoke_dir/metrics.out"
if ! grep -q '^# TYPE xdl_requests_total counter' "$smoke_dir/metrics.out" \
    || ! grep -q '^xdl_requests_total{verb="QUERY"} 1$' "$smoke_dir/metrics.out" \
    || ! grep -q '^# TYPE xdl_request_seconds histogram' "$smoke_dir/metrics.out"; then
    echo "check.sh: METRICS scrape is not the expected Prometheus exposition:" >&2
    head -20 "$smoke_dir/metrics.out" >&2
    exit 1
fi
./target/release/xdl metrics --connect "$addr" --json > "$smoke_dir/metrics.json"
if ! grep -q '"xdl_requests_total"' "$smoke_dir/metrics.json"; then
    echo "check.sh: METRICS JSON readout missing families" >&2
    exit 1
fi
./target/release/xdl query --connect "$addr" --shutdown
wait "$serve_pid"
serve_pid=""
echo "check.sh: server smoke ok (incl. METRICS scrape)"

# Telemetry suite: the Prometheus text-format parser, histogram
# invariants, counter monotonicity across scrapes, and the strict JSON
# checks over METRICS/STATS/TRACE.
cargo test -q -p datalog-server --test metrics > /dev/null
echo "check.sh: telemetry suite ok"

# Fault suite: the injection harness (fsync failure, torn WAL tail, panic
# isolation, deadline storm, slow client, budget, shedding, drain) must
# pass against the release-profile server crate — with parallel evaluation
# on (XDL_EVAL_THREADS feeds ServerConfig::default), so limits, panics and
# recovery are exercised under the threaded fixpoint too.
XDL_EVAL_THREADS=4 cargo test -q -p datalog-server --test faults > /dev/null
echo "check.sh: fault suite ok (eval_threads=4)"

# Best-effort ThreadSanitizer arm over the parallel-evaluation tests.
# -Zsanitizer is nightly-only and needs rust-src for -Zbuild-std; on a
# stable-only toolchain this is skipped with a notice rather than failed,
# so the gate stays runnable offline.
if command -v rustup > /dev/null 2>&1 \
    && rustup toolchain list 2>/dev/null | grep -q '^nightly' \
    && rustup component list --toolchain nightly 2>/dev/null \
        | grep -q '^rust-src (installed)'; then
    tsan_host=$(rustc -vV | sed -n 's/^host: //p')
    RUSTFLAGS="-Zsanitizer=thread" \
    cargo +nightly test -q -Zbuild-std --target "$tsan_host" \
        -p datalog-engine --lib > /dev/null
    echo "check.sh: ThreadSanitizer arm ok ($tsan_host)"
else
    echo "check.sh: ThreadSanitizer arm skipped (needs nightly toolchain + rust-src)"
fi

# Resource-limit smoke: a budget-limited run fails with a structured
# message carrying partial stats, instead of succeeding or hanging.
if ./target/release/xdl run "$smoke_dir/run.dl" --budget 1 > /dev/null 2> "$smoke_dir/limit.err"; then
    echo "check.sh: budget-limited run did not fail" >&2
    exit 1
fi
if ! grep -q 'budget' "$smoke_dir/limit.err" || ! grep -q 'partial:' "$smoke_dir/limit.err"; then
    echo "check.sh: limit error lacks structure:" >&2
    cat "$smoke_dir/limit.err" >&2
    exit 1
fi
echo "check.sh: resource-limit smoke ok"

# Scaling smoke: parallel evaluation must be byte-identical to serial —
# the answers and the full stats partition, not just the answer set.
./target/release/xdl run "$smoke_dir/run.dl" --stats --threads 1 \
    > "$smoke_dir/threads1.out" 2>&1
./target/release/xdl run "$smoke_dir/run.dl" --stats --threads 4 \
    > "$smoke_dir/threads4.out" 2>&1
if ! cmp -s "$smoke_dir/threads1.out" "$smoke_dir/threads4.out"; then
    echo "check.sh: --threads 4 output differs from serial:" >&2
    diff "$smoke_dir/threads1.out" "$smoke_dir/threads4.out" >&2 || true
    exit 1
fi
echo "check.sh: scaling smoke ok"

# Scaling experiment: record a quick E12 run so BENCH history accumulates
# alongside the committed full-mode BENCH_e12.json.
mkdir -p bench_history
./target/release/harness e12 --quick --json \
    > "bench_history/e12-$(date +%s).json"
echo "check.sh: e12 recorded ($(ls bench_history | wc -l) history entries)"

# Telemetry overhead experiment: record a quick E13 run (metrics on vs
# no-op registry) alongside the committed full-mode BENCH_e13.json.
./target/release/harness e13 --quick --json \
    > "bench_history/e13-$(date +%s).json"
echo "check.sh: e13 recorded ($(ls bench_history | wc -l) history entries)"

# Incremental-serving smoke: ingest after a warm query, then demand the
# resident-frontier answer is byte-identical to a server with residency
# disabled (--resident-forms 0 forces invalidate-and-recompute).
for forms in 8 0; do
    start_server "$smoke_dir/serve-inc$forms.out" --threads 2 \
        --resident-forms "$forms" \
        || { echo "check.sh: incremental smoke server ($forms) did not announce" >&2; exit 1; }
    ./target/release/xdl query --connect "$addr" --load "$smoke_dir/tc.dl" \
        '?- a(X, _).' > /dev/null
    ./target/release/xdl query --connect "$addr" --fact 'p(3, 4).' \
        --fact 'p(4, 5).' '?- a(X, _).' > "$smoke_dir/inc$forms.out"
    ./target/release/xdl query --connect "$addr" --shutdown
    wait "$serve_pid"
    serve_pid=""
done
if ! cmp -s "$smoke_dir/inc8.out" "$smoke_dir/inc0.out"; then
    echo "check.sh: resident frontier differs from invalidate-recompute:" >&2
    diff "$smoke_dir/inc8.out" "$smoke_dir/inc0.out" >&2 || true
    exit 1
fi
echo "check.sh: incremental serving smoke ok"

# Incremental serving experiment: record a quick E14 run (resident delta
# propagation vs invalidate-recompute) alongside the committed full-mode
# BENCH_e14.json.
./target/release/harness e14 --quick --json \
    > "bench_history/e14-$(date +%s).json"
echo "check.sh: e14 recorded ($(ls bench_history | wc -l) history entries)"

# Bounded-staleness smoke: with every drain deferred (--drain-sync-cost 0)
# a relaxed read (--any / --staleness 50) still answers off the published
# frontier, and a fresh read catches up to byte-identity with `xdl run`.
start_server "$smoke_dir/serve-stale.out" --threads 2 --drain-sync-cost 0 \
    || { echo "check.sh: staleness smoke server did not announce" >&2; exit 1; }
./target/release/xdl query --connect "$addr" --load "$smoke_dir/tc.dl" \
    '?- a(X, _).' > /dev/null
./target/release/xdl query --connect "$addr" --fact 'p(3, 4).' --any \
    '?- a(X, _).' > "$smoke_dir/stale-any.out"
./target/release/xdl query --connect "$addr" --staleness 50 '?- a(X, _).' \
    > "$smoke_dir/stale-bounded.out"
for f in stale-any stale-bounded; do
    if ! grep -q '^X$' "$smoke_dir/$f.out"; then
        echo "check.sh: relaxed read ($f) did not answer:" >&2
        cat "$smoke_dir/$f.out" >&2
        exit 1
    fi
done
{ cat "$smoke_dir/tc.dl"; printf 'p(3, 4).\n?- a(X, _).\n'; } \
    > "$smoke_dir/run-stale.dl"
./target/release/xdl run "$smoke_dir/run-stale.dl" > "$smoke_dir/ran-stale.out"
./target/release/xdl query --connect "$addr" '?- a(X, _).' \
    > "$smoke_dir/fresh-stale.out"
if ! cmp -s "$smoke_dir/fresh-stale.out" "$smoke_dir/ran-stale.out"; then
    echo "check.sh: fresh read after deferred drains differs from xdl run:" >&2
    diff "$smoke_dir/fresh-stale.out" "$smoke_dir/ran-stale.out" >&2 || true
    exit 1
fi
./target/release/xdl query --connect "$addr" --shutdown
wait "$serve_pid"
serve_pid=""
echo "check.sh: bounded-staleness smoke ok"

# Bounded-staleness experiment: record a quick E15 run (recompute baseline
# vs synchronous fresh vs staleness=50 under a FACT flood) alongside the
# committed full-mode BENCH_e15.json.
./target/release/harness e15 --quick --json \
    > "bench_history/e15-$(date +%s).json"
echo "check.sh: e15 recorded ($(ls bench_history | wc -l) history entries)"

# Crash-recovery smoke: ingest through a WAL-backed server, SIGKILL it
# (no shutdown, no flush), restart on the same WAL directory, and demand
# byte-identical query output.
start_server "$smoke_dir/serve2.out" --threads 2 --wal "$smoke_dir/wal" \
    || { echo "check.sh: WAL server did not announce its address" >&2; exit 1; }
./target/release/xdl query --connect "$addr" --load "$smoke_dir/tc.dl" \
    --fact 'p(3, 4).' '?- a(X, _).' > "$smoke_dir/before-crash.out"
kill -9 "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
serve_pid=""

start_server "$smoke_dir/serve3.out" --threads 2 --wal "$smoke_dir/wal" \
    || { echo "check.sh: restarted WAL server did not announce its address" >&2; exit 1; }
if ! grep -q '^recovered ' "$smoke_dir/serve3.out"; then
    echo "check.sh: restarted server reported no recovery" >&2
    exit 1
fi
./target/release/xdl query --connect "$addr" '?- a(X, _).' \
    > "$smoke_dir/after-crash.out"
if ! cmp -s "$smoke_dir/before-crash.out" "$smoke_dir/after-crash.out"; then
    echo "check.sh: answers differ across SIGKILL + recovery:" >&2
    diff "$smoke_dir/before-crash.out" "$smoke_dir/after-crash.out" >&2 || true
    exit 1
fi
./target/release/xdl query --connect "$addr" --shutdown
wait "$serve_pid"
serve_pid=""
echo "check.sh: crash-recovery smoke ok"

# Manifest-recovery smoke: same SIGKILL discipline, but with compaction
# enabled (--compact-every 4) so the surviving WAL directory holds a
# run-file manifest instead of a pure text log. The restart must load the
# run batches (a `recovered` line with nonzero run_files) and answer
# byte-identically.
start_server "$smoke_dir/serve-man.out" --threads 2 \
    --wal "$smoke_dir/wal-man" --compact-every 4 \
    || { echo "check.sh: manifest WAL server did not announce its address" >&2; exit 1; }
./target/release/xdl query --connect "$addr" --load "$smoke_dir/tc.dl" \
    --fact 'p(3, 4).' --fact 'p(4, 5).' --fact 'p(5, 6).' '?- a(X, _).' \
    > "$smoke_dir/before-man.out"
if [ ! -f "$smoke_dir/wal-man/snapshot.manifest" ]; then
    echo "check.sh: compaction left no snapshot.manifest" >&2
    ls "$smoke_dir/wal-man" >&2 || true
    exit 1
fi
kill -9 "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
serve_pid=""

start_server "$smoke_dir/serve-man2.out" --threads 2 \
    --wal "$smoke_dir/wal-man" --compact-every 4 \
    || { echo "check.sh: restarted manifest server did not announce its address" >&2; exit 1; }
if ! grep -q '^recovered ' "$smoke_dir/serve-man2.out" \
    || ! grep -Eq '"run_files":[1-9]' "$smoke_dir/serve-man2.out"; then
    echo "check.sh: restart did not recover from run files:" >&2
    cat "$smoke_dir/serve-man2.out" >&2
    exit 1
fi
./target/release/xdl query --connect "$addr" '?- a(X, _).' \
    > "$smoke_dir/after-man.out"
if ! cmp -s "$smoke_dir/before-man.out" "$smoke_dir/after-man.out"; then
    echo "check.sh: answers differ across SIGKILL + manifest recovery:" >&2
    diff "$smoke_dir/before-man.out" "$smoke_dir/after-man.out" >&2 || true
    exit 1
fi
./target/release/xdl query --connect "$addr" --shutdown
wait "$serve_pid"
serve_pid=""
echo "check.sh: manifest-recovery smoke ok"

# Storage experiment: record a quick E16 run (sorted-run ingest, cold
# probes with bloom skips, text-replay vs manifest crash recovery)
# alongside the committed full-mode BENCH_e16.json.
./target/release/harness e16 --quick --json \
    > "bench_history/e16-$(date +%s).json"
echo "check.sh: e16 recorded ($(ls bench_history | wc -l) history entries)"

# Parallel-host re-record: committed scaling numbers measured on a 1-core
# host say nothing about parallel speedup (the exported host_parallelism
# field marks the provenance; files recorded before the field count as
# 1-core). On a multi-core host, refresh the full E12 record once.
cores=$( (nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null) || echo 1 )
if [ "${cores:-1}" -gt 1 ] \
    && ! grep -Eq '"host_parallelism": *([2-9]|[0-9]{2,})' BENCH_e12.json; then
    ./target/release/harness e12 --json > BENCH_e12.json
    echo "check.sh: BENCH_e12.json re-recorded on a ${cores}-core host"
else
    echo "check.sh: BENCH_e12.json re-record not needed (cores=$cores)"
fi

echo "check.sh: all green"
