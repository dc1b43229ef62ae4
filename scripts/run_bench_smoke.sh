#!/usr/bin/env bash
# CI smoke for the perf benches: builds every target (library, tools,
# tests, benches, examples) and runs each bench on the smallest substrate
# (--smoke), failing on crash, on an in-bench exactness
# violation (the benches exit non-zero when top-k / DeletionStats /
# serialized-bytes identity breaks or a NaN shows up in a measurement), or
# on a non-finite value leaking into the JSON artifacts. The artifacts are
# then structurally validated by `bench_check --smoke` (parse, non-empty
# cells, finite-positive throughput, exactness attestations true), and the
# metric-name lint runs over the tree. The build itself must print no
# compiler warning, tests included. Takes ~a minute; no perf thresholds
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

# Examples stay ON: a reused tree (BUILD_DIR=build) keeps building them.
cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=Release \
  -DFUME_BUILD_EXAMPLES=ON
# The build must be warning-free: it covers every target, tests included,
# its output is kept and any compiler warning fails the smoke (a target
# that is already up to date compiles nothing and prints none). One job
# per core: a bare -j lets make start every compile of the tree at once.
cmake --build "${BUILD_DIR}" -j "$(nproc)" 2>&1 |
  tee "${BUILD_DIR}/smoke-build.log"
if grep -q 'warning:' "${BUILD_DIR}/smoke-build.log"; then
  echo "FAIL: the build printed compiler warnings (see above)"
  exit 1
fi

REPO_DIR="$(pwd)"
BENCH_DIR="$(cd "${BUILD_DIR}" && pwd)/bench"
TOOLS_DIR="$(cd "${BUILD_DIR}" && pwd)/tools"
EXAMPLES_DIR="$(cd "${BUILD_DIR}" && pwd)/examples"
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

# Belt and braces: no NaN/inf in the machine-readable artifacts, and each
# records the machine its numbers came from.
for artifact in bench_artifacts/BENCH_unlearn.json bench_artifacts/BENCH_eval.json \
                bench_artifacts/BENCH_incremental.json bench_artifacts/BENCH_serve.json \
                bench_artifacts/BENCH_shard.json; do
  if [ ! -f "${artifact}" ]; then
    echo "FAIL: ${artifact} was not written"
    status=1
  elif grep -qiE 'nan|inf' "${artifact}"; then
    echo "FAIL: non-finite value in ${artifact}"
    status=1
  elif ! grep -q '"machine": *"[^"]' "${artifact}"; then
    echo "FAIL: ${artifact} does not record its machine"
    status=1
  fi
done

# The eval bench must have exercised the fused strategy (and attested its
# identity against the pointer walk and the clone path) even at smoke
# size — a silently dropped strategy column would otherwise pass every
# structural check.
if [ -f bench_artifacts/BENCH_eval.json ]; then
  if ! grep -q '"strategy": *"fused"' bench_artifacts/BENCH_eval.json; then
    echo "FAIL: no fused strategy cells in BENCH_eval.json"
    status=1
  fi
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

# Front-end legs: the five tools share one flag parser. Each must print
# its help (exit 0) and reject an unknown flag with exit 2; an integer that
# does not fit its field, or a switch value other than 0/1/false/true, is
# rejected (exit 2), never read as a different value.
echo "=== command-line front end ==="
expect_exit() {  # expect_exit CODE TOOL ARGS...
  local want="$1" code=0
  shift
  "${TOOLS_DIR}/$1" "${@:2}" > /dev/null 2>&1 || code=$?
  if [ "${code}" -ne "${want}" ]; then
    echo "FAIL: $* exited ${code}, not ${want}"
    status=1
  fi
}
for tool in fume_cli fume_stream fume_serve fume_client bench_check; do
  expect_exit 0 "${tool}" --help
  expect_exit 2 "${tool}" --bogus
done
expect_exit 2 fume_cli --dataset german-credit --threads 2147483649
expect_exit 2 fume_stream --lazy=2  # a switch takes 0, 1, false or true

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

# The --flag=value form means what --flag value means.
echo "=== fume_stream --flag=value smoke ==="
if ! "${TOOLS_DIR}/fume_stream" --dataset=german-credit --rows=500 --ops=30 \
    --delete-batch=6 --checkpoint-every=20 --shards=1 \
    > stream-inline.log 2>&1; then
  echo "FAIL: fume_stream with --flag=value arguments exited non-zero"
  tail -5 stream-inline.log
  status=1
elif [ "$(grep '^final' stream-inline.log)" != \
       "$(grep '^final' stream-shards1.log)" ]; then
  echo "FAIL: fume_stream --flag=value diverged from --flag value"
  status=1
fi

# One-shot audit legs, once per deployment: fume_cli runs one search
# path at every shard count. Each run must exit 0, print a top-k table,
# report the search's rescoring work in its per-query cost (the removal
# method's counters are what QueryScope tracks) and save its model as a
# FUMESHRD container.
for shards in 1 4; do
  deployment=()
  if [ "${shards}" -gt 1 ]; then
    deployment=(--shards "${shards}" --placement slice)
  fi
  tag="cli-shards${shards}"
  echo "=== fume_cli audit smoke (${deployment[*]:-default shards}) ==="
  rm -f "${tag}.model"
  if ! "${TOOLS_DIR}/fume_cli" --dataset german-credit --threads 4 \
      --query-cost --save-model "${tag}.model" "${deployment[@]}" \
      > "${tag}.log" 2>&1; then
    echo "FAIL: fume_cli ${deployment[*]} exited non-zero"
    tail -5 "${tag}.log"
    status=1
    continue
  fi
  if ! grep -q '^| S1 ' "${tag}.log"; then
    echo "FAIL: fume_cli ${deployment[*]} printed no top-k table"
    status=1
  fi
  if ! grep -qE '^  removal\.unlearn\.cow_rows_rescored \+[1-9]' "${tag}.log"; then
    echo "FAIL: fume_cli ${deployment[*]} query cost lacks" \
      "removal.unlearn.cow_rows_rescored"
    status=1
  fi
  if [ "$(head -c 8 "${tag}.model" 2>/dev/null)" != "FUMESHRD" ]; then
    echo "FAIL: fume_cli ${deployment[*]} --save-model wrote no FUMESHRD" \
      "container"
    status=1
  fi
done

# Model-agnostic leg: the extensibility demo audits one dataset through
# three removal methods (DaRE, ERT, HedgeCut) and must print all three.
echo "=== extensibility_demo ==="
if ! "${EXAMPLES_DIR}/extensibility_demo" > extensibility.log 2>&1; then
  echo "FAIL: extensibility_demo exited non-zero"
  tail -5 extensibility.log
  status=1
else
  headers="$(grep -c '^--- ' extensibility.log || true)"
  if [ "${headers}" -ne 3 ]; then
    echo "FAIL: extensibility_demo printed ${headers} audit headers, not 3"
    status=1
  fi
fi

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
  # A row id past int's range is a bad request, never a delete of the row
  # it would wrap to (4294967297 would read as row 1).
  echo '{"id":1,"op":"stream_op","tenant":"default","line":"D 99 4294967297"}' \
    > wrapped-id.jsonl
  if "${TOOLS_DIR}/fume_client" --port-file serve.port \
      --replay wrapped-id.jsonl > wrapped-id.log 2>&1; then
    echo "FAIL: fume_serve accepted a stream_op with an out-of-range row id"
    status=1
  elif ! grep -q '"code":"bad_request"' wrapped-id.log; then
    echo "FAIL: out-of-range row id was not answered with bad_request"
    cat wrapped-id.log
    status=1
  elif ! grep -q '^{"id":1,"ok":false' wrapped-id.log; then
    # A pipelining client must be able to tell which request failed.
    echo "FAIL: the bad_request answer does not echo the request's id"
    cat wrapped-id.log
    status=1
  fi
  # fume_client sends a request whole or not at all: a fourth literal field
  # or a trailing comma in a row is malformed (exit 1), never dropped.
  for bad in --whatif=0:eq:1:junk --predict=0,1,; do
    code=0
    "${TOOLS_DIR}/fume_client" --port-file serve.port "${bad}" \
      > bad-arg.log 2>&1 || code=$?
    if [ "${code}" -ne 1 ] || ! grep -q '^malformed' bad-arg.log; then
      echo "FAIL: fume_client ${bad} exited ${code} without a malformed line"
      cat bad-arg.log
      status=1
    fi
  done
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
