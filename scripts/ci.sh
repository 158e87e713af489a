#!/usr/bin/env bash
# CI gate: tier-1 verification (ROADMAP.md) plus lint.
#
#   tier-1:  cargo build --release && cargo test -q
#   tests:   cargo test --workspace -q (every crate's tests)
#   lint:    cargo fmt --all -- --check
#            cargo clippy --all-targets -- -D warnings
#
# Run from the repository root: ./scripts/ci.sh

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> lint: cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> tests: cargo test --workspace -q"
cargo test --workspace -q

echo "==> analyzer: reproduce analyze on the committed corpus"
for wl in difftest/corpus/*.wl; do
  ./target/release/reproduce analyze "$wl" > /dev/null
done

echo "==> analyzer: reproduce analyze smoke (all IR stages)"
SRC='Function[{Typed[n, "MachineInteger"]}, Module[{s = 0, i = 1}, While[i <= n, s = s + i; i = i + 1]; s]]'
for stage in wir twir post-pipeline; do
  ./target/release/reproduce analyze --ir-stage "$stage" "$SRC" > /dev/null
done

echo "==> analyzer: range-check elision stats vs committed golden"
./target/release/reproduce analyze --stats --golden ANALYZE_stats.golden > /dev/null

echo "==> serve: bench-serve smoke (zero divergences, nonzero hit rate)"
./target/release/reproduce bench-serve --quick

echo "==> serve: networked warm-restart smoke (wire protocol + disk cache)"
# Start a socket server over an empty disk-cache dir, drive it with the
# closed-loop wire client, SIGTERM it, restart it over the *same* dir,
# and require the second run to serve every first-sight program from the
# disk cache with zero recompiles (the warm-restart contract). Both runs
# fail on any divergence from ground truth.
SERVE_ADDR="127.0.0.1:7788"
SERVE_CACHE_DIR="$(mktemp -d)"
SERVE_PID=""
cleanup_serve() {
  [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
  rm -rf "$SERVE_CACHE_DIR"
}
trap cleanup_serve EXIT
wait_for_serve() {
  for _ in $(seq 1 100); do
    if (exec 3<>"/dev/tcp/127.0.0.1/7788") 2>/dev/null; then
      exec 3>&- 2>/dev/null || true
      return 0
    fi
    sleep 0.1
  done
  echo "serve did not start listening on $SERVE_ADDR" >&2
  return 1
}
./target/release/reproduce serve --listen "$SERVE_ADDR" --tier bytecode \
  --cache-dir "$SERVE_CACHE_DIR" &
SERVE_PID=$!
wait_for_serve
./target/release/reproduce bench-serve --net "$SERVE_ADDR" --quick \
  --json BENCH_serve_net_cold.json
kill -TERM "$SERVE_PID" && wait "$SERVE_PID" || true
./target/release/reproduce serve --listen "$SERVE_ADDR" --tier bytecode \
  --cache-dir "$SERVE_CACHE_DIR" &
SERVE_PID=$!
wait_for_serve
./target/release/reproduce bench-serve --net "$SERVE_ADDR" --quick --expect-warm \
  --json BENCH_serve_net_warm.json
kill -TERM "$SERVE_PID" && wait "$SERVE_PID" || true
SERVE_PID=""
rm -rf "$SERVE_CACHE_DIR"

echo "==> parallel: bench-parallel smoke (result equivalence, balanced counters)"
# Quick-scale ablation over the tensor benchmarks; exits nonzero if any
# data-parallel configuration (including threads=2) diverges from the
# fused-scalar baseline or global_stats() ends up imbalanced. The JSON
# report is uploaded as a workflow artifact by ci.yml.
./target/release/reproduce bench-parallel --quick --json BENCH_parallel.json

echo "==> stream: bench-stream smoke (equivalence, balanced counters, frame reuse, throughput floor)"
# Quick-scale streaming sweep; exits nonzero if any configuration's output
# differs from a one-shot loop of the same tier, the memory counters end
# up imbalanced, a native machine allocated more than one frame or any
# other native call missed the frame pool (records stopped reusing
# frames), or the best streamed speedup misses the sanity floor. The JSON
# report is uploaded as a workflow artifact by ci.yml.
./target/release/reproduce bench-stream --quick --json BENCH_stream.json

echo "==> stream: CLI smoke (line-delimited records, in-order replies)"
STREAM_OUT="$(printf '1\n2\nnope\n4\n' | ./target/release/reproduce stream \
  --function 'Function[{Typed[n, "MachineInteger"]}, n*n]' --batch 2 2>/dev/null)"
if [ "$STREAM_OUT" != "$(printf 'ok 1\nok 4\nerr type error: argument nope does not match parameter type Integer64\nok 16')" ]; then
  echo "unexpected stream output:" >&2
  echo "$STREAM_OUT" >&2
  exit 1
fi

echo "==> stream: CLI codec guard (literal and fall-back records, Real64 and tensor results)"
# The committed record file mixes records the literal reader takes
# directly with ones that fall back to the expression reader (comments,
# `*^` exponents, a tab), a rank-mismatched record, a malformed line and
# records whose result is 1e15. Both functions' replies must match the
# committed expected file byte for byte.
STREAM_RECORDS=tests/stream/mixed_records.txt
if ! { ./target/release/reproduce stream --input "$STREAM_RECORDS" --batch 4 \
         --function 'Function[{Typed[v, "Tensor"["Real64", 1]]}, 2.*v]' &&
       ./target/release/reproduce stream --input "$STREAM_RECORDS" --batch 4 \
         --function 'Function[{Typed[x, "Real64"]}, 2.*x]'; } 2>/dev/null |
     diff -u tests/stream/mixed_records.expected -; then
  echo "stream codec output differs from tests/stream/mixed_records.expected" >&2
  exit 1
fi

echo "==> lint: cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> lint (workspace): cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> ci.sh: all checks passed"
