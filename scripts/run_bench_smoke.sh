#!/usr/bin/env bash
# CI smoke for the perf benches: builds bench_unlearn_kernel,
# bench_eval_throughput and bench_stream_throughput and runs each on the
# smallest substrate (--smoke), failing on crash, on an in-bench exactness
# violation (the benches exit non-zero when top-k / DeletionStats /
# serialized-bytes identity breaks or a NaN shows up in a measurement), or
# on a non-finite value leaking into the JSON artifacts. The artifacts are
# then structurally validated by `bench_check --smoke` (parse, non-empty
# cells, finite-positive throughput, exactness attestations true), and the
# metric-name lint runs over the tree. Takes ~a minute; no perf thresholds
# are asserted — throughput numbers from a shared CI box are noise,
# identity is not. (Perf regressions are caught by running the benches at
# full size and `bench_check --baseline-dir bench_artifacts` — see
# docs/observability.md.)
#
# The benches write bench_artifacts/ relative to their CWD, so this script
# runs them from a scratch directory inside the build tree — the repo's
# committed full-run artifacts are never overwritten by smoke numbers.
# Usage:
#
#   scripts/run_bench_smoke.sh           # default build dir: build-bench-smoke
#   BUILD_DIR=build scripts/run_bench_smoke.sh   # reuse an existing tree
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build-bench-smoke}"

cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=Release \
  -DFUME_BUILD_EXAMPLES=OFF
cmake --build "${BUILD_DIR}" -j --target bench_unlearn_kernel \
  bench_eval_throughput bench_stream_throughput bench_serve bench_shard \
  bench_check fume_stream_cli fume_serve_cli fume_client

REPO_DIR="$(pwd)"
BENCH_DIR="$(cd "${BUILD_DIR}" && pwd)/bench"
TOOLS_DIR="$(cd "${BUILD_DIR}" && pwd)/tools"
SCRATCH="${BUILD_DIR}/bench-smoke"
mkdir -p "${SCRATCH}"
cd "${SCRATCH}"

status=0
for bench in bench_unlearn_kernel bench_eval_throughput bench_stream_throughput \
             bench_serve bench_shard; do
  echo "=== ${bench} --smoke ==="
  if ! "${BENCH_DIR}/${bench}" --smoke; then
    echo "FAIL: ${bench} exited non-zero (crash or exactness violation)"
    status=1
  fi
done

# Belt and braces: no NaN/inf in the machine-readable artifacts.
for artifact in bench_artifacts/BENCH_unlearn.json bench_artifacts/BENCH_eval.json \
                bench_artifacts/BENCH_incremental.json bench_artifacts/BENCH_serve.json \
                bench_artifacts/BENCH_shard.json; do
  if [ ! -f "${artifact}" ]; then
    echo "FAIL: ${artifact} was not written"
    status=1
  elif grep -qiE 'nan|inf' "${artifact}"; then
    echo "FAIL: non-finite value in ${artifact}"
    status=1
  fi
done

# The eval bench must have exercised the arena and fused strategies (and
# attested their identity against the pointer walk and the clone path)
# even at smoke size — a silently dropped strategy column would otherwise
# pass every structural check.
if [ -f bench_artifacts/BENCH_eval.json ]; then
  for strategy in arena fused; do
    if ! grep -q "\"strategy\": *\"${strategy}\"" bench_artifacts/BENCH_eval.json; then
      echo "FAIL: no ${strategy} strategy cells in BENCH_eval.json"
      status=1
    fi
  done
  for key in arena_pointer_identical fused_clone_identical; do
    if ! grep -q "\"${key}\": *true" bench_artifacts/BENCH_eval.json; then
      echo "FAIL: ${key} attestation missing or false in BENCH_eval.json"
      status=1
    fi
  done
fi

# The unlearn bench must have exercised the retrain baseline and the
# lazy-tags strategy, and attested the exactness invariants: compounded
# kernel deletions serialize like a same-store retrain on the surviving
# rows, the flushed lazy forest is byte-identical to the eager kernel, and
# a query-flushed lazy burst leaves the top-k search unchanged.
if [ -f bench_artifacts/BENCH_unlearn.json ]; then
  for strategy in retrain lazy-tags; do
    if ! grep -q "\"strategy\": *\"${strategy}\"" bench_artifacts/BENCH_unlearn.json; then
      echo "FAIL: no ${strategy} strategy cells in BENCH_unlearn.json"
      status=1
    fi
  done
  for key in compounded_bytes_identical lazy_flush_bytes_identical \
             lazy_topk_identical; do
    if ! grep -q "\"${key}\": *true" bench_artifacts/BENCH_unlearn.json; then
      echo "FAIL: ${key} attestation missing or false in BENCH_unlearn.json"
      status=1
    fi
  done
fi

# The shard bench must attest every SISA exactness invariant: the 1-shard
# container is byte- and top-k-identical to the monolithic forest, a
# sharded delete equals per-shard standalone deletes, and results are
# byte-identical across thread counts.
if [ -f bench_artifacts/BENCH_shard.json ]; then
  for key in shard1_bytes_identical shard1_topk_identical \
             per_shard_delete_bytes_identical thread_counts_bytes_identical; do
    if ! grep -q "\"${key}\": *true" bench_artifacts/BENCH_shard.json; then
      echo "FAIL: ${key} attestation missing or false in BENCH_shard.json"
      status=1
    fi
  done
  if ! grep -q '"kind": *"delete-cohort"' bench_artifacts/BENCH_shard.json; then
    echo "FAIL: no delete-cohort cells in BENCH_shard.json"
    status=1
  fi
fi

# Stream identity legs, once per deployment: the default one-shard model
# and a slice-placed 4-shard ensemble.
#
#  * Lazy leg: a delete-heavy run with deferred subtree retrains must end
#    with the in-binary identity attestation — every flushed shard equals a
#    cold retrain on its surviving rows (fume_stream exits non-zero and
#    prints MISMATCH otherwise).
#  * Replay leg: a run writes its op-log and rewrites its checkpoint at
#    every checkpoint op; restoring the last checkpoint and replaying the
#    log (already-applied ops skipped) must land on the same final metric
#    and accuracy as the uninterrupted run.
for shards in 1 4; do
  deployment=(--shards "${shards}")
  if [ "${shards}" -gt 1 ]; then deployment+=(--placement slice); fi
  tag="shards${shards}"

  echo "=== fume_stream --lazy identity smoke (${deployment[*]}) ==="
  if ! "${TOOLS_DIR}/fume_stream" --dataset german-credit --rows 500 --ops 40 \
      --delete-batch 8 --checkpoint-every 10 --lazy --lazy-budget 64 \
      "${deployment[@]}" > "stream-lazy-${tag}.log" 2>&1; then
    echo "FAIL: fume_stream --lazy ${deployment[*]} exited non-zero"
    tail -5 "stream-lazy-${tag}.log"
    status=1
  elif ! grep -q "lazy identity: ok" "stream-lazy-${tag}.log"; then
    echo "FAIL: fume_stream --lazy ${deployment[*]} did not print its" \
      "identity attestation"
    status=1
  fi

  echo "=== fume_stream replay smoke (${deployment[*]}) ==="
  rm -f "ops-${tag}.log" "${tag}.ckpt"
  if ! "${TOOLS_DIR}/fume_stream" --dataset german-credit --rows 500 --ops 30 \
      --delete-batch 6 --checkpoint-every 20 "${deployment[@]}" \
      --oplog-out "ops-${tag}.log" --checkpoint "${tag}.ckpt" \
      > "stream-${tag}.log" 2>&1; then
    echo "FAIL: fume_stream ${deployment[*]} exited non-zero"
    tail -5 "stream-${tag}.log"
    status=1
  elif ! "${TOOLS_DIR}/fume_stream" --dataset german-credit --rows 500 \
      "${deployment[@]}" --oplog "ops-${tag}.log" --resume "${tag}.ckpt" \
      > "stream-${tag}-resume.log" 2>&1; then
    echo "FAIL: fume_stream ${deployment[*]} --resume exited non-zero"
    tail -5 "stream-${tag}-resume.log"
    status=1
  else
    final_run="$(grep '^final' "stream-${tag}.log")"
    final_resumed="$(grep '^final' "stream-${tag}-resume.log")"
    if [ -z "${final_run}" ] || [ "${final_run}" != "${final_resumed}" ]; then
      echo "FAIL: ${deployment[*]} replay diverged from the uninterrupted run"
      echo "  run:     ${final_run}"
      echo "  resumed: ${final_resumed}"
      status=1
    fi
  fi
done

# End-to-end serving smoke: boot fume_serve with a sharded default tenant
# on an ephemeral port, run the canned fume_client round trips (health/
# metrics/explain/predict/whatif/stream/checkpoint — all through the SISA
# ensemble), then check SIGTERM drains to a clean exit.
echo "=== fume_serve --shards / fume_client --smoke ==="
rm -f serve.port
"${TOOLS_DIR}/fume_serve" --rows 600 --port 0 --port-file serve.port \
  --checkpoint-dir serve-state --oplog-dir serve-state --lazy \
  --shards 2 --placement slice &
SERVE_PID=$!
for _ in $(seq 1 100); do
  [ -s serve.port ] && break
  sleep 0.1
done
if [ ! -s serve.port ]; then
  echo "FAIL: fume_serve never wrote its port file"
  kill -9 "${SERVE_PID}" 2>/dev/null || true
  status=1
elif ! "${TOOLS_DIR}/fume_client" --port-file serve.port --smoke; then
  echo "FAIL: fume_client --smoke against fume_serve"
  kill -9 "${SERVE_PID}" 2>/dev/null || true
  status=1
else
  kill -TERM "${SERVE_PID}"
  if ! wait "${SERVE_PID}"; then
    echo "FAIL: fume_serve did not exit cleanly on SIGTERM"
    status=1
  elif [ ! -f serve-state/default.ckpt ]; then
    echo "FAIL: fume_serve wrote no shutdown checkpoint"
    status=1
  fi
fi

# Structural validation of the freshly produced artifacts.
echo "=== bench_check --smoke ==="
if ! "${TOOLS_DIR}/bench_check" --smoke --fresh-dir bench_artifacts; then
  echo "FAIL: bench_check --smoke rejected the artifacts"
  status=1
fi

# Every metric name in the tree is well-formed and documented.
echo "=== check_metric_names ==="
if ! "${REPO_DIR}/scripts/check_metric_names.sh"; then
  status=1
fi

if [ "${status}" -eq 0 ]; then
  echo "bench smoke OK"
fi
exit "${status}"
