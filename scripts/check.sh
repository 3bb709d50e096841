#!/usr/bin/env bash
# The full workspace gate, exactly as CI runs it. Hermetic: no network.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> cargo test"
cargo test --workspace -q

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> adec-lint"
cargo run -q -p adec-analysis --bin adec-lint

echo "==> bench_compare.py unit tests"
python3 scripts/test_bench_compare.py

echo "==> adec load --help smoke"
cargo run -q --release -p adec-cli -- load --help > /dev/null

echo "==> adec --check (paper-scale architectures)"
cargo run -q --release -p adec-cli -- --check --size paper

echo "==> adec --check --deep (tape dataflow + reduction-order scan, paper scale)"
cargo run -q --release -p adec-cli -- --check --deep --size paper

echo "==> serve fleet drill (replica-kill, wedge, hot reload under fire) + post-drill SLO ratchet"
FLEET_DIR=$(mktemp -d)
FLEET_SERVER=""
DRIFT_SERVER=""
trap 'for pid in "$FLEET_SERVER" "$DRIFT_SERVER"; do if [ -n "$pid" ]; then kill "$pid" 2>/dev/null || true; fi; done; rm -rf "$FLEET_DIR"' EXIT
target/release/adec --method dec --dataset protein --size small --seed 7 \
  --iters 200 --pretrain-iters 80 --checkpoint-dir "$FLEET_DIR/a"
target/release/adec --method dec --dataset protein --size small --seed 8 \
  --iters 200 --pretrain-iters 80 --checkpoint-dir "$FLEET_DIR/b"
# Pristine seed-7 bytes for the drift drill below: the fleet drill mutates
# the reload path, leaving a/dec.ckpt holding the alternate weights.
mkdir -p "$FLEET_DIR/drift"
cp "$FLEET_DIR/a/dec.ckpt" "$FLEET_DIR/drift/live.ckpt"
cp "$FLEET_DIR/a/dec.ckpt" "$FLEET_DIR/drift/refit.ckpt"
# Same server shape as the committed BENCH_serve.json baseline (8 workers,
# 16 inflight, 250ms read deadline) so the post-drill ratchet is apples
# to apples; the slow-loris share of the load mix needs that capacity.
# Observe-policy drift sentinel armed: the ratchet doubles as the bound
# on the sentinel's request-path overhead.
target/release/adec serve --checkpoint "$FLEET_DIR/a/dec.ckpt" --port 8427 \
  --replicas 8 --max-inflight 16 --deadline-ms 2000 --read-deadline-ms 250 \
  --wedge-budget-ms 400 --drift-policy observe &
FLEET_SERVER=$!
target/release/adec-chaos --port 8427 --max-inflight 16 --read-deadline-ms 250 --seed 7 \
  --fleet --reload-path "$FLEET_DIR/a/dec.ckpt" --alt-checkpoint "$FLEET_DIR/b/dec.ckpt" \
  --wedge-budget-ms 400
# The drilled server (respawned replicas, twice-swapped model) must still
# hold the committed SLO snapshot, then drain to exit 0.
target/release/adec load --seed 7 --rps 500 --duration 10s --addr 127.0.0.1:8427 \
  --out "$FLEET_DIR/BENCH_serve_fleet.json"
python3 scripts/bench_compare.py BENCH_serve.json \
  "$FLEET_DIR/BENCH_serve_fleet.json" "$FLEET_DIR/fleet_comparison.json"
python3 - <<'EOF'
import urllib.request
req = urllib.request.Request("http://127.0.0.1:8427/shutdown", method="POST")
urllib.request.urlopen(req, timeout=10).read()
EOF
wait "$FLEET_SERVER"
FLEET_SERVER=""

echo "==> serve drift drill (stationary no-false-alarm, bounded detection, gate + refit recovery)"
# Gate policy against the seed-7 checkpoint; the drill replays the very
# distribution the profile was computed on (protein/small/seed 7), shifts
# it, and recovers via a refit hot reload, then drains the server.
target/release/adec serve --checkpoint "$FLEET_DIR/drift/live.ckpt" --port 8428 \
  --replicas 2 --max-inflight 16 --deadline-ms 2000 --read-deadline-ms 250 \
  --drift-policy gate --drift-window 64 &
DRIFT_SERVER=$!
target/release/adec-chaos --port 8428 --seed 7 --drift \
  --reload-path "$FLEET_DIR/drift/live.ckpt" \
  --refit-checkpoint "$FLEET_DIR/drift/refit.ckpt" \
  --drift-window 64 --max-windows 8 \
  --dataset protein --data-size small --data-seed 7 --shutdown
wait "$DRIFT_SERVER"
DRIFT_SERVER=""

echo "all checks passed"
