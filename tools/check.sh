#!/usr/bin/env bash
# The full local CI gate. Run from anywhere inside the repository;
# everything must pass before a change is mergeable.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (warnings denied)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> concurrency allowlist lint"
tools/conc_lint.sh

echo "==> cargo build --release (examples included)"
cargo build --workspace --release --examples
cargo build --workspace --release

echo "==> cargo test"
cargo test --workspace --quiet

echo "==> perfbench smoke tests (a separate workspace over the public crate APIs)"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> model-check: exhaustive concurrency invariant suites"
cargo test -p arest-conc --features model-check --quiet
cargo test -p crossbeam --features model-check --quiet --test model
cargo test -p arest-tnt --features model-check --quiet --test model_pool
cargo test -p arest-obs --features model-check --quiet --test model_obs
cargo test -p arest-fingerprint --features model-check --quiet --test model_cache
cargo test -p arest-fingerprint --features model-check --quiet --test model_cache_rehydrate
cargo test -p arest-experiments --features model-check --quiet --test model_window
cargo test -p arest-serve --features model-check --quiet --test model_serve
cargo test -p arest-serve --features model-check --quiet --test model_store_cell

echo "==> cargo doc (rustdoc warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> bench-pipeline smoke run (timings informational, not gated)"
cargo run --release -p arest-experiments --bin arest-experiments -- --quick bench-pipeline
test -s BENCH_pipeline.json
grep -q '"speedup"' BENCH_pipeline.json

echo "==> netgen catalog-scale smoke run (10x replication)"
cargo run --release -p arest-netgen --bin netgen -- --scale 10 --scale-factor 0.01 --vps 2 \
    | grep -q "total: 600 ASes"

echo "==> catalog-scale smoke run (quick build over a 2x catalog)"
cargo run --release -p arest-experiments --bin arest-experiments -- \
    --quick --catalog-scale 2 headline >/dev/null

echo "==> streaming dataflow smoke run (--stream per-AS progress rows)"
cargo run --release -p arest-experiments --bin arest-experiments -- \
    --quick --stream headline >/dev/null

echo "==> observability smoke run (RUN_REPORT + trace artifacts)"
AREST_OBS=1 cargo run --release -p arest-experiments --bin arest-experiments -- \
    --quick --trace-out trace-artifacts headline audit >/dev/null
test -s RUN_REPORT.txt
test -s RUN_REPORT.csv
test -s trace-artifacts/trace.json
test -s trace-artifacts/trace.folded
test -s trace-artifacts/RUN_REPORT_provenance.txt

echo "==> tracing example smoke run"
cargo run --release --example tracing >/dev/null

echo "==> arest-serve smoke run (ephemeral port, live /status + /metrics)"
SERVE_LOG=$(mktemp)
SERVE_OUT=$(mktemp -d)    # serve forces --obs; keep its RUN_REPORT out of the tree
cargo run --release -p arest-experiments --bin arest-experiments -- \
    --quick --out "$SERVE_OUT" serve --listen 127.0.0.1:0 >"$SERVE_LOG" 2>&1 &
SERVE_PID=$!
SERVE_URL=""
for _ in $(seq 1 100); do
    SERVE_URL=$(grep -oE 'http://127\.0\.0\.1:[0-9]+' "$SERVE_LOG" || true)
    [[ -n "$SERVE_URL" ]] && break
    sleep 0.2
done
test -n "$SERVE_URL"
curl -sf "$SERVE_URL/status" | grep -q '"status": "serving"'
curl -sf "$SERVE_URL/metrics" | grep -q 'serve_http_requests_status 1'
kill -INT "$SERVE_PID"
wait "$SERVE_PID"    # graceful SIGINT drain must exit 0
test -s "$SERVE_OUT/RUN_REPORT.txt"
rm -rf "$SERVE_LOG" "$SERVE_OUT"

echo "==> bench-serve smoke run (load generator + latency report)"
cargo run --release -p arest-experiments --bin arest-experiments -- \
    --quick bench-serve --clients 2 --requests 25
test -s BENCH_serve.json
grep -q '"requests_per_second"' BENCH_serve.json
grep -q '"p99"' BENCH_serve.json

echo "==> ledger smoke run (two campaigns, history, announce/withdraw diff)"
LEDGER_DIR=$(mktemp -d)
cargo run --release -p arest-experiments --bin arest-experiments -- \
    --quick --ledger "$LEDGER_DIR" headline >/dev/null
cargo run --release -p arest-experiments --bin arest-experiments -- \
    --quick --seed 11 --ledger "$LEDGER_DIR" headline >/dev/null
# Capture before grepping: `grep -q` closing the pipe early would
# EPIPE the writer mid-listing.
DELTA_DIR=$(mktemp -d)
cargo run --release -p arest-experiments --bin arest-experiments -- \
    --ledger "$LEDGER_DIR" history > "$DELTA_DIR/history.txt"
grep -q '2 committed run(s)' "$DELTA_DIR/history.txt"
cargo run --release -p arest-experiments --bin arest-experiments -- \
    --ledger "$LEDGER_DIR" --out "$DELTA_DIR" diff 1 2 > "$DELTA_DIR/stdout.txt"
grep -q '^announce ' "$DELTA_DIR/stdout.txt"
grep -q '^withdraw ' "$DELTA_DIR/stdout.txt"
test -s "$DELTA_DIR/RUN_REPORT_delta.txt"
rm -rf "$LEDGER_DIR" "$DELTA_DIR"

echo "==> bench-ledger smoke run (commit/load/diff latency report)"
cargo run --release -p arest-experiments --bin arest-experiments -- \
    --quick bench-ledger
test -s BENCH_ledger.json
grep -q '"commit_us"' BENCH_ledger.json
grep -q '"snapshot_bytes"' BENCH_ledger.json

echo "==> incremental smoke run (full campaign, 1-AS re-probe, carry-forward delta)"
INCR_DIR=$(mktemp -d)
INCR_OUT=$(mktemp -d)
cargo run --release -p arest-experiments --bin arest-experiments -- \
    --quick --ledger "$INCR_DIR" headline >/dev/null
# Re-probe a single catalog AS against run 1: everything else is
# carried forward and the deterministic build leaves an empty delta.
cargo run --release -p arest-experiments --bin arest-experiments -- \
    --quick --ledger "$INCR_DIR" --reprobe as15169 --base 1 --out "$INCR_OUT" \
    headline >/dev/null 2>"$INCR_OUT/stderr.txt"
grep -q 'rehydrating fingerprint cache from run 1' "$INCR_OUT/stderr.txt"
grep -q 'incremental against run 1: 1 fresh, 59 carried' "$INCR_OUT/stderr.txt"
grep -q 'no detection-level differences' "$INCR_OUT/RUN_REPORT_delta.txt"
rm -rf "$INCR_DIR" "$INCR_OUT"

echo "==> bench-incremental smoke run (cost-vs-slice-fraction curve)"
cargo run --release -p arest-experiments --bin arest-experiments -- \
    --quick --workers 4 bench-incremental
test -s BENCH_incremental.json
grep -q '"digest_matches_full": true' BENCH_incremental.json

echo "==> all checks passed"
