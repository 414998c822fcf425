#!/usr/bin/env bash
# Local CI gate: formatting, lints, build, tests.
#
# The container is fully offline (no crates.io access); the workspace has
# no external dependencies, so everything runs with --offline.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (-D warnings) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== cargo build --release =="
cargo build --offline --release --workspace --all-targets

echo "== cargo test =="
cargo test --offline --release --workspace -q

echo "== cargo doc (missing docs are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace --quiet

echo "== rustdoc gate on rbp-serve (store/wire modules hold deny(missing_docs)) =="
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps -p rbp-serve --quiet

echo "== rustdoc gate on rbp-stream (crate-wide deny(missing_docs)) =="
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps -p rbp-stream --quiet

echo "== rustdoc gate on rbp-hier (crate-wide deny(missing_docs)) =="
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps -p rbp-hier --quiet

echo "== quick solver sweep (equivalence + speedup smoke) =="
./target/release/exp_solver --quick

echo "== parallel solver smoke (--threads 4, every partition mode, same optimum) =="
seq_opt=$(./target/release/rbp solve tests/fixtures/chains_2x4.dag 2 3 2 \
    | sed -n 's/^OPT = \([0-9]*\).*/\1/p')
[ -n "$seq_opt" ] || { echo "parallel smoke failed: no sequential OPT"; exit 1; }
for mode in hash bands anchors; do
    par_opt=$(./target/release/rbp solve tests/fixtures/chains_2x4.dag 2 3 2 \
        --threads 4 --partition "$mode" \
        | sed -n 's/^OPT = \([0-9]*\).*/\1/p')
    [ "$seq_opt" = "$par_opt" ] \
        || { echo "parallel smoke failed: sequential=$seq_opt threads4/$mode=$par_opt"; exit 1; }
done
echo "parallel smoke: OPT=$seq_opt at 1 thread and 4 threads x {hash,bands,anchors}"

echo "== hier smoke (three-level solve on the separation gadget) =="
hier_dag=$(mktemp)
trap 'rm -f "$hier_dag"' EXIT
./target/release/rbp gen hier_skip 1 > "$hier_dag"
vanilla_opt=$(./target/release/rbp solve "$hier_dag" 1 3 3 \
    | sed -n 's/^OPT = \([0-9]*\).*/\1/p')
hier_opt=$(./target/release/rbp solve "$hier_dag" 1 3 3 --levels 3 --green-cap 1 --green-cost 1 \
    | sed -n 's/^OPT = \([0-9]*\).*/\1/p')
[ -n "$vanilla_opt" ] && [ -n "$hier_opt" ] \
    || { echo "hier smoke failed: vanilla=$vanilla_opt hier=$hier_opt"; exit 1; }
[ "$hier_opt" -lt "$vanilla_opt" ] \
    || { echo "hier smoke failed: hier=$hier_opt not < vanilla=$vanilla_opt"; exit 1; }
# Degenerate reduction: green_cap=0 must reproduce the vanilla optimum.
degen_opt=$(./target/release/rbp solve "$hier_dag" 1 3 3 --levels 3 --green-cap 0 \
    | sed -n 's/^OPT = \([0-9]*\).*/\1/p')
[ "$degen_opt" = "$vanilla_opt" ] \
    || { echo "hier smoke failed: cap=0 gave $degen_opt, vanilla $vanilla_opt"; exit 1; }
trap - EXIT
rm -f "$hier_dag"
echo "hier smoke: OPT(3-level)=$hier_opt < OPT(2-level)=$vanilla_opt, cap=0 reduces exactly"

echo "== hot-path perf guard (state-count ceiling on a fixed fixture) =="
# Load-independent regression gate for the sequential hot path: the
# settled-state count on this fixture is deterministic, so a ceiling —
# not a wall-clock — catches pruning regressions even on a busy CI
# host. Measured counts on grid_3x3 (k=2, r=3, g=2), OPT = 11, with
# the deepest-first frontier and the critical-path heuristic term:
#   dominance+heuristic (default)      : 13,946 settled
#   dominance off                      : 18,012
#   heuristic off                      : 80,303
#   both off (SearchConfig::baseline)  : 187,589
# The 15,300 ceiling passes the default config with ~10% headroom and
# fails if the heuristic, its critical-path term or dominance stops
# pruning.
guard_trace=$(mktemp)
trap 'rm -f "$guard_trace"' EXIT
guard_opt=$(RBP_TRACE="$guard_trace" \
    ./target/release/rbp solve tests/fixtures/grid_3x3.dag 2 3 2 --max-states 15300 \
    | sed -n 's/^OPT = \([0-9]*\).*/\1/p') \
    || { echo "perf guard failed: settled-state count exceeded 15300 (hot-path regression)"; exit 1; }
[ "$guard_opt" = "11" ] \
    || { echo "perf guard failed: OPT=$guard_opt on grid_3x3, expected 11"; exit 1; }
# The same run must emit phase counters and render them as a report
# section, so the profiling layer cannot silently rot.
guard_report=$(./target/release/rbp report "$guard_trace")
echo "$guard_report" | grep -q "## Hot path" \
    || { echo "perf guard failed: no Hot path section in report"; exit 1; }
echo "$guard_report" | grep -q "solver.phase.mpp.idle_suppressed" \
    || { echo "perf guard failed: solver.phase.mpp.idle_suppressed counter missing"; exit 1; }
trap - EXIT
rm -f "$guard_trace"
echo "perf guard: OPT=11 within the 15300-state ceiling, Hot path section rendered"

echo "== sharded perf guard (threads=2, state-count ceiling on the same fixture) =="
# The sharded driver's settled count varies with the interleaving: 40
# runs of this command on a 2-core x86 host settled 12,003-13,997
# states (median 12,224; the sequential run above settles 13,946).
# The 20,000 ceiling leaves room for that spread and fails if sharding
# starts settling far more states than the sequential engine.
par_guard_opt=$(./target/release/rbp solve tests/fixtures/grid_3x3.dag 2 3 2 \
    --threads 2 --max-states 20000 \
    | sed -n 's/^OPT = \([0-9]*\).*/\1/p') \
    || { echo "sharded perf guard failed: settled-state count exceeded 20000"; exit 1; }
[ "$par_guard_opt" = "11" ] \
    || { echo "sharded perf guard failed: OPT=$par_guard_opt at threads=2, expected 11"; exit 1; }
echo "sharded perf guard: OPT=11 at threads=2 within the 20000-state ceiling"

echo "== trace report smoke (fixture round trip) =="
./target/release/rbp report tests/fixtures/trace_small.jsonl | grep -q "| chain(4) | 2 | 2 |"
serve_report=$(./target/release/rbp report tests/fixtures/trace_serve.jsonl)
echo "$serve_report" | grep -q "## Serve store" \
    || { echo "report smoke: no Serve store section"; exit 1; }
echo "$serve_report" | grep -q "| serve.store.hit | 2 |" \
    || { echo "report smoke: store hit counter missing"; exit 1; }

echo "== scale smoke (10^5-node grid through the streaming tier) =="
scale_dag=$(mktemp)
scale_trace=$(mktemp)
scale_out=$(mktemp)
trap 'rm -f "$scale_dag" "$scale_trace" "$scale_out"' EXIT
./target/release/rbp gen grid 250 400 > "$scale_dag"
grep -q '^nodes 100000$' "$scale_dag" || { echo "scale smoke: bad generator output"; exit 1; }
# Small memory budget (r=4) on 8 processors; every move goes through
# the rule-enforcing streaming simulator, so a non-zero exit here
# means an *invalid* schedule, not just a slow one.
RBP_TRACE="$scale_trace" ./target/release/rbp schedule "$scale_dag" 8 4 2 --stream \
    || { echo "scale smoke: streaming schedule failed"; exit 1; }
scale_report=$(./target/release/rbp report "$scale_trace")
echo "$scale_report" | grep -q "## Scale" \
    || { echo "scale smoke: no Scale section in report"; exit 1; }
echo "$scale_report" | grep -q "| stream.nodes | 300000 |" \
    || { echo "scale smoke: stream.nodes counter wrong (want 3 schedulers x 100000)"; exit 1; }
echo "$scale_report" | grep -q "stream.nodes_per_sec" \
    || { echo "scale smoke: stream.nodes_per_sec gauge missing"; exit 1; }
echo "$scale_report" | grep -q "stream.peak_active_set" \
    || { echo "scale smoke: stream.peak_active_set gauge missing"; exit 1; }
# Streamed strategy round-trip: emit JSONL, reload it through
# `rbp improve --in` (validates the full strategy in-memory).
./target/release/rbp schedule "$scale_dag" 8 4 2 wavefront --stream --out "$scale_out" \
    || { echo "scale smoke: --out emission failed"; exit 1; }
# Capture, don't pipe: `grep -q` would close the pipe at the first
# match and (under pipefail) turn the CLI's broken-pipe panic into a
# spurious failure.
improve_out=$(./target/release/rbp improve "$scale_dag" 8 4 2 --in "$scale_out" --budget-ms 1) \
    || { echo "scale smoke: improve reload failed"; exit 1; }
echo "$improve_out" | grep -q "saved:" \
    || { echo "scale smoke: streamed JSONL did not reload"; exit 1; }
trap - EXIT
rm -f "$scale_dag" "$scale_trace" "$scale_out"
echo "scale smoke: 10^5-node grid scheduled, stream.* gauges rendered, JSONL round-trip"

echo "== portfolio smoke (fixture DAG, tight budget) =="
summary=$(./target/release/rbp portfolio tests/fixtures/chains_2x4.dag 2 3 2 --budget-ms 200 \
    | grep '^PORTFOLIO ')
echo "$summary"
total=$(echo "$summary" | sed -n 's/.* total=\([0-9]*\).*/\1/p')
baseline=$(echo "$summary" | sed -n 's/.* baseline=\([0-9]*\).*/\1/p')
[ -n "$total" ] && [ -n "$baseline" ] && [ "$total" -le "$baseline" ] \
    || { echo "portfolio smoke failed: total=$total baseline=$baseline"; exit 1; }

echo "== serve smoke (cache hit + graceful shutdown) =="
serve_log=$(mktemp)
./target/release/rbp serve --addr 127.0.0.1:0 --workers 2 >"$serve_log" 2>&1 &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true; rm -f "$serve_log"' EXIT
addr=""
for _ in $(seq 1 50); do
    addr=$(sed -n 's/^rbp-serve listening on \(.*\)$/\1/p' "$serve_log")
    [ -n "$addr" ] && break
    sleep 0.1
done
[ -n "$addr" ] || { echo "serve smoke failed: server never bound"; cat "$serve_log"; exit 1; }
solve_body='{"generator":{"family":"grid","params":[2,3]},"k":2,"r":3,"g":2}'
r1=$(curl -sf -X POST "http://$addr/v1/solve" -d "$solve_body")
r2=$(curl -sf -X POST "http://$addr/v1/solve" -d "$solve_body")
echo "$r1" | grep -q '"cache":"miss"' || { echo "serve smoke: first solve not a miss: $r1"; exit 1; }
echo "$r2" | grep -q '"cache":"hit"'  || { echo "serve smoke: second solve not a hit: $r2"; exit 1; }
t1=$(echo "$r1" | sed -n 's/.*"total":\([0-9]*\).*/\1/p')
t2=$(echo "$r2" | sed -n 's/.*"total":\([0-9]*\).*/\1/p')
[ -n "$t1" ] && [ "$t1" = "$t2" ] \
    || { echo "serve smoke: cached total differs: cold=$t1 warm=$t2"; exit 1; }
# Hier mode must live in the cache key: same DAG, levels=3 vs vanilla
# are distinct entries with distinct (strictly better) totals.
hier_body='{"generator":{"family":"hier_skip","params":[1]},"k":1,"r":3,"g":3,"levels":3,"green_cap":1,"green_cost":1}'
flat_body='{"generator":{"family":"hier_skip","params":[1]},"k":1,"r":3,"g":3}'
h1=$(curl -sf -X POST "http://$addr/v1/solve" -d "$hier_body")
h2=$(curl -sf -X POST "http://$addr/v1/solve" -d "$hier_body")
f1=$(curl -sf -X POST "http://$addr/v1/solve" -d "$flat_body")
echo "$h1" | grep -q '"cache":"miss"' || { echo "serve smoke: hier solve not a miss: $h1"; exit 1; }
echo "$h2" | grep -q '"cache":"hit"'  || { echo "serve smoke: hier repeat not a hit: $h2"; exit 1; }
echo "$h1" | grep -q '"mode":"hier:cap=1:cost=1"' \
    || { echo "serve smoke: hier mode token not echoed: $h1"; exit 1; }
echo "$f1" | grep -q '"cache":"miss"' \
    || { echo "serve smoke: vanilla body collided with the hier cache key: $f1"; exit 1; }
ht=$(echo "$h1" | sed -n 's/.*"total":\([0-9]*\).*/\1/p')
ft=$(echo "$f1" | sed -n 's/.*"total":\([0-9]*\).*/\1/p')
[ -n "$ht" ] && [ -n "$ft" ] && [ "$ht" -lt "$ft" ] \
    || { echo "serve smoke: hier total=$ht not < vanilla total=$ft"; exit 1; }
curl -sf -X POST "http://$addr/v1/shutdown" >/dev/null
wait "$serve_pid" || { echo "serve smoke: server exited non-zero"; exit 1; }
trap - EXIT
rm -f "$serve_log"
echo "serve smoke: cache hit (total=$t1), hier keyed separately ($ht < $ft), clean shutdown"

echo "== restart-survival smoke (--store-dir, SIGTERM kill, warm reboot hit) =="
store_dir=$(mktemp -d)
serve_log=$(mktemp)
./target/release/rbp serve --addr 127.0.0.1:0 --workers 2 --store-dir "$store_dir" \
    >"$serve_log" 2>&1 &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true; rm -rf "$serve_log" "$store_dir"' EXIT
addr=""
for _ in $(seq 1 50); do
    addr=$(sed -n 's/^rbp-serve listening on \([^ ]*\).*$/\1/p' "$serve_log")
    [ -n "$addr" ] && break
    sleep 0.1
done
[ -n "$addr" ] || { echo "restart smoke: server never bound"; cat "$serve_log"; exit 1; }
solve_body='{"generator":{"family":"grid","params":[2,3]},"k":2,"r":3,"g":2}'
r1=$(curl -sf -X POST "http://$addr/v1/solve" -d "$solve_body")
echo "$r1" | grep -q '"cache":"miss"' \
    || { echo "restart smoke: first solve not a miss: $r1"; exit 1; }
t1=$(echo "$r1" | sed -n 's/.*"total":\([0-9]*\).*/\1/p')
# Abrupt SIGTERM — no graceful drain. The store's checksummed append
# log must still hold the result (crash-tail recovery covers any torn
# final record).
kill -TERM "$serve_pid"
wait "$serve_pid" || true
./target/release/rbp serve --addr 127.0.0.1:0 --workers 2 --store-dir "$store_dir" \
    >"$serve_log" 2>&1 &
serve_pid=$!
addr=""
for _ in $(seq 1 50); do
    addr=$(sed -n 's/^rbp-serve listening on \([^ ]*\).*$/\1/p' "$serve_log")
    [ -n "$addr" ] && break
    sleep 0.1
done
[ -n "$addr" ] || { echo "restart smoke: reborn server never bound"; cat "$serve_log"; exit 1; }
r2=$(curl -sf -X POST "http://$addr/v1/solve" -d "$solve_body")
echo "$r2" | grep -q '"cache":"hit"' \
    || { echo "restart smoke: reboot did not answer warm: $r2"; exit 1; }
t2=$(echo "$r2" | sed -n 's/.*"total":\([0-9]*\).*/\1/p')
[ -n "$t1" ] && [ "$t1" = "$t2" ] \
    || { echo "restart smoke: totals differ across restart: $t1 vs $t2"; exit 1; }
curl -sf -X POST "http://$addr/v1/shutdown" >/dev/null
wait "$serve_pid" || { echo "restart smoke: server exited non-zero"; exit 1; }
trap - EXIT
rm -rf "$serve_log" "$store_dir"
echo "restart smoke: SIGTERM survived, warm hit with identical total=$t1"

echo "CI OK"
