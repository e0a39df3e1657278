#!/usr/bin/env bash
# Tier-1 verification: full build + test suite, the bench and trace gates, an
# appbench smoke, then the chaos soak, the RPC suite and the memory suite under
# ThreadSanitizer (the failure-recovery paths are the most thread-hostile code
# in the tree, the RPC path starts and stops the service threads, and all of
# migration's internal-RPC traffic funnels through the one completion poller,
# so they get the extra scrutiny).
#
# Usage: scripts/run_tier1.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

echo "== tier-1: build + ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j"${JOBS}"
(cd build && ctest --output-on-failure -j"${JOBS}")

echo "== tier-1: perf-regression gate (check_bench) =="
# Re-run the anchored benches into a scratch dir and diff their telemetry
# sidecars against the committed BENCH_*.json anchors (tolerances in
# scripts/check_bench.py). bench_micro's sweeps always run and always write
# their sidecars; the filter just skips the google-benchmark timing loops.
mkdir -p build/bench-out
(cd build/bench-out && ../bench/bench_micro --benchmark_filter=__none__ >/dev/null) || true
(cd build/bench-out && ../bench/bench_migrate >/dev/null)
(cd build/bench-out && ../bench/bench_latency_breakdown >/dev/null)
# Transport scale smoke: the 8/100-node prefix of the fig14 RC-vs-DC sweep
# (the committed anchor covers the full 8..1000 sweep; check_bench pairs the
# smoke prefix and skips the rest — see SUBSET_OK).
(cd build/bench-out && ../bench/fig14_scalability --scale-smoke \
    --telemetry BENCH_transport_scale.json >/dev/null)
python3 scripts/check_bench.py

echo "== tier-1: chrome-trace export sanity =="
TRACE_OUT="$(mktemp /tmp/lite_trace.XXXXXX.json)"
trap 'rm -f "${TRACE_OUT}"' EXIT
./build/bench/fig10_rpc_latency --trace-out "${TRACE_OUT}" >/dev/null
python3 scripts/check_trace.py --require-flow "${TRACE_OUT}"

echo "== tier-1: appbench smoke =="
# Every application workload once untraced and once traced, on a fresh build
# of the benchmark binary; fails on a non-zero exit or any failed request.
python3 appbench/run.py --selftest

echo "== tier-1: chaos soak under ThreadSanitizer =="
cmake -B build-tsan -S . -DLT_SANITIZE=thread >/dev/null
cmake --build build-tsan -j"${JOBS}" --target faults_chaos_test faults_test lite_async_test lite_ring_test transport_test lite_sync_test lite_rpc_test lite_memory_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/faults_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/lite_sync_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/lite_rpc_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/lite_memory_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/lite_async_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/lite_ring_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/transport_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/faults_chaos_test

echo "== tier-1: memory + async suites under ASan+UBSan =="
cmake -B build-asan -S . -DLT_SANITIZE=address >/dev/null
cmake --build build-asan -j"${JOBS}" --target lite_memory_test lite_async_test
ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" ./build-asan/tests/lite_memory_test
ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" ./build-asan/tests/lite_async_test

echo "== tier-1: PASS =="
