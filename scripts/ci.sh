#!/usr/bin/env bash
# Full local CI gate. Mirrors .github/workflows/ci.yml so a green run
# here means a green run there.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"

echo "== default preset: build + full test suite =="
cmake --preset default
cmake --build --preset default -j "$JOBS"
# Every ctest label (golden, engine, sched, churn, costmodel, cluster,
# pdes, serving, ...) and the bench smokes registered with add_test
# (engine_bench, costmodel_bench, scaling_machines, pdes_scaling,
# serving_bench --smoke) run here, once.
ctest --preset default -j "$JOBS"

echo "== lifecycle churn fuzzer smoke (invariants under create/destroy/pause) =="
./build/tests/churn_fuzz_test --smoke

echo "== perfbench self-test (both scheduled workloads against perfbench/pins.txt) =="
python3 perfbench/run.py --self-test

echo "== tsan preset: parallel-executor tests under ThreadSanitizer =="
cmake --preset tsan
cmake --build --preset tsan -j "$JOBS"
ctest --preset tsan

echo "== asan preset: full test suite under AddressSanitizer + UBSan (LeakSanitizer on) =="
cmake --preset asan
cmake --build --preset asan -j "$JOBS"
ctest --preset asan -j "$JOBS"  # includes engine_bench_smoke under LeakSanitizer

echo "== release preset: checker hooks compiled out =="
cmake --preset release
cmake --build --preset release -j "$JOBS"
ctest --test-dir build-release -j "$JOBS"

echo "CI gate: all green"
