#!/usr/bin/env bash
# Builds with ThreadSanitizer and runs the tests that exercise the
# lock-free observability counters and the multi-threaded FUME search
# (over DaRE and over HedgeCut, the one non-DaRE family, and the pinned
# German audit at 4 threads), so every new atomic is race-checked. A
# sanitizer report makes the test that produced it exit non-zero, so the
# sweep passes only with zero reports.
# The ASan sweep also caps any single allocation at 1 GiB
# (max_allocation_size_mb), so a loader that sizes memory from an unchecked
# length prefix fails its test instead of passing silently.
# Usage:
#
#   scripts/run_tsan_tests.sh            # TSan (default)
#   FUME_SANITIZE=address scripts/run_tsan_tests.sh   # ASan+UBSan instead
#
# Extra args are forwarded to ctest.
set -euo pipefail

cd "$(dirname "$0")/.."

SANITIZER="${FUME_SANITIZE:-thread}"
BUILD_DIR="build-${SANITIZER}san"

cmake -B "${BUILD_DIR}" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DFUME_SANITIZE="${SANITIZER}" \
  -DFUME_BUILD_BENCHMARKS=OFF \
  -DFUME_BUILD_EXAMPLES=OFF
cmake --build "${BUILD_DIR}" -j "$(nproc)" --target obs_test fume_algorithm_test \
  forest_unlearn_test unlearn_kernel_test forest_cow_test forest_arena_test \
  stream_test serve_test thread_pool_test query_scope_test \
  bench_check_test sharded_forest_test sharded_stream_test deletion_stats_test \
  what_if_score_test what_if_test serialize_test util_test data_test \
  cli_common_test hedgecut_test binary_io_test subset_test paper_pin_test

if [[ "${SANITIZER}" == "address" ]]; then
  export ASAN_OPTIONS="${ASAN_OPTIONS:+${ASAN_OPTIONS}:}max_allocation_size_mb=1024"
fi

cd "${BUILD_DIR}"
ctest --output-on-failure -j "$(nproc)" \
  -R '(Obs|Fume|Unlearn|Addition|Stream|Serve|OpLog|PredictionCache|DriftPolicy|Workload|Cow|WhatIf|ThreadPool|Kernel|DeletionScratch|QueryScope|BenchCheck|JsonParser|Arena|Sharded|DeletionStats|Serialize|String|Csv|Cli|Hedgecut|BinaryIo|ForgedFile|Bitmap|Literal|Predicate|PostingIndex|PaperPin)' "$@"
