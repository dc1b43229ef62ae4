#!/usr/bin/env bash
# Lints the metric names used by production code (src/, tools/, bench/,
# examples/ — tests may register throwaway names) against three rules:
#
#   1. Scheme: every literal passed to obs::GetCounter / GetGauge /
#      GetHistogram matches the dotted lowercase naming scheme
#      <subsystem>.<object>.<event> (two or more dot-separated segments of
#      [a-z0-9_]).
#   2. Documentation: the name is discoverable in docs/observability.md —
#      either verbatim, or via a documented `prefix.*` wildcard row that
#      also lists the name's remaining suffix (the doc's table style, e.g.
#      the `fume.prune.*` row listing `rule4_parent`).
#   3. Live snapshots: every counter, gauge and histogram in a committed
#      bench_artifacts/*.metrics.json is a name production code registers,
#      so no snapshot keeps reporting a metric that was deleted.
#
# Run from anywhere; exits non-zero listing every violation. Wired into
# scripts/run_bench_smoke.sh so CI catches undocumented or misnamed
# metrics the moment they are introduced.
set -euo pipefail

cd "$(dirname "$0")/.."

DOC="docs/observability.md"
if [ ! -f "${DOC}" ]; then
  echo "FAIL: ${DOC} not found"
  exit 1
fi

names="$(grep -rhoE 'Get(Counter|Gauge|Histogram)\("[^"]+"\)' \
           src tools bench examples \
         | sed -E 's/.*\("([^"]+)"\).*/\1/' | sort -u)"

if [ -z "${names}" ]; then
  echo "FAIL: no metric registrations found (extraction broken?)"
  exit 1
fi

status=0
count=0
for name in ${names}; do
  count=$((count + 1))

  if ! printf '%s' "${name}" | grep -qE '^[a-z0-9_]+(\.[a-z0-9_]+)+$'; then
    echo "FAIL: '${name}' violates the <subsystem>.<object>.<event> scheme"
    status=1
    continue
  fi

  # Documented verbatim?
  if grep -qF "${name}" "${DOC}"; then
    continue
  fi

  # Documented via a wildcard row? Accept any split point: the doc must
  # contain "prefix.*" and, somewhere, the remaining suffix.
  documented=0
  prefix="${name}"
  while [[ "${prefix}" == *.* ]]; do
    prefix="${prefix%.*}"
    suffix="${name#"${prefix}".}"
    if grep -qF "${prefix}.*" "${DOC}" && grep -qF "${suffix}" "${DOC}"; then
      documented=1
      break
    fi
  done
  if [ "${documented}" -eq 0 ]; then
    echo "FAIL: '${name}' is not documented in ${DOC}"
    status=1
  fi
done

registered="$(printf '%s\n' ${names} | LC_ALL=C sort -u)"
snapshots=0
for snapshot in bench_artifacts/*.metrics.json; do
  [ -f "${snapshot}" ] || continue
  snapshots=$((snapshots + 1))
  recorded="$(python3 -c '
import json, sys
snapshot = json.load(open(sys.argv[1]))
for kind in ("counters", "gauges", "histograms"):
    for name in snapshot.get(kind, {}):
        print(name)
' "${snapshot}" | LC_ALL=C sort -u)" || {
    echo "FAIL: ${snapshot} is not a readable metrics snapshot"
    status=1
    continue
  }
  for name in $(LC_ALL=C comm -23 <(printf '%s\n' "${recorded}") \
                                  <(printf '%s\n' "${registered}")); do
    echo "FAIL: ${snapshot} records '${name}', which no production code" \
      "registers"
    status=1
  done
done

if [ "${status}" -eq 0 ]; then
  echo "metric names OK (${count} names checked against ${DOC}," \
    "${snapshots} committed snapshots hold only registered names)"
fi
exit "${status}"
