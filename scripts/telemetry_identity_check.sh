#!/bin/sh
# Telemetry identity gate: observation must not perturb simulation.
#
# Usage: ./scripts/telemetry_identity_check.sh [sweep_figures] [tracetool]
#   defaults: build/bench/sweep_figures, build/tools/tracetool
#
# The observability layer (heartbeat snapshots, run manifests, --stats
# counters, OpenMetrics export) is strictly observation-only: enabling
# all of it must leave every simulated result bit-identical.  This script
# proves that two ways:
#   1. Runs the smoke sweeps (both scales, every sweep-derived figure)
#      twice, each in its own scratch working directory -- telemetry fully
#      off, then with --stats, --status, and --progress all on -- and
#      requires both sweep CSVs and every figure CSV to be byte-identical
#      (a sibling of scripts/ddr3_identity_check.sh, which gates the DRAM
#      spec layer the same way).
#   2. Re-records the committed golden traces with the heartbeat enabled
#      and checks them against traces/golden/SHA256SUMS.
# It also sanity-checks the telemetry side-channel itself: the status
# file must parse as a final snapshot and the manifest must say
# "completed".  ~20 s on a CI runner (two smoke sweep processes).
set -e

bin=${1:-build/bench/sweep_figures}
tool=${2:-build/tools/tracetool}
cd "$(dirname "$0")/.."
for b in "$bin" "$tool"; do
  if [ ! -x "$b" ]; then
    echo "usage: $0 [sweep_figures] [tracetool]  ($b: not an executable)" >&2
    exit 2
  fi
done
bin=$(cd "$(dirname "$bin")" && pwd)/$(basename "$bin")

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/off" "$work/on" "$work/traces"

echo "[telemetry-identity] smoke sweeps with telemetry off" >&2
(cd "$work/off" &&
  env -u ECCSIM_STATS -u ECCSIM_STATUS -u ECCSIM_PROGRESS -u ECCSIM_QUICK \
    -u ECCSIM_DRAM ECCSIM_SMOKE=1 "$bin" >/dev/null)

echo "[telemetry-identity] smoke sweeps with all telemetry on" >&2
(cd "$work/on" &&
  env -u ECCSIM_QUICK -u ECCSIM_DRAM ECCSIM_SMOKE=1 ECCSIM_STATS=1 \
    ECCSIM_STATUS_INTERVAL_MS=0 \
    "$bin" --status "$work/status.json" --progress >/dev/null 2>"$work/on.err")

csvs=$(ls "$work/off/bench_results/smoke/"*.csv | wc -l)
if [ "$csvs" -ne 12 ]; then
  echo "[telemetry-identity] FAIL: expected 12 CSVs, got $csvs" >&2
  exit 1
fi
if ! diff -r "$work/off/bench_results" "$work/on/bench_results" >&2; then
  echo "[telemetry-identity] FAIL: CSVs differ between telemetry on/off" >&2
  echo "[telemetry-identity] (the observability contract is that stats and" >&2
  echo "[telemetry-identity]  heartbeats never feed back into simulation;" >&2
  echo "[telemetry-identity]  see docs/OBSERVABILITY.md)" >&2
  exit 1
fi

# The telemetry itself must have materialized: a final heartbeat snapshot
# and a completed manifest.
grep -q '"schema": "eccsim.heartbeat/1"' "$work/status.json"
grep -q '"final": true' "$work/status.json"
name=$(basename "$bin")
grep -q '"status": "completed"' "$work/on/results/smoke/$name.manifest.json"
[ -s "$work/on/results/smoke/$name.prom" ]

echo "[telemetry-identity] re-recording golden traces with heartbeat on" >&2
for f in traces/golden/*.ecctrace; do
  wl=$(basename "$f" .ecctrace)
  env ECCSIM_STATUS="$work/trace_status.json" ECCSIM_STATUS_INTERVAL_MS=0 \
    "$tool" record --workload "$wl" --cores 2 --ops-per-core 512 \
    --out "$work/traces/" >/dev/null
done
cp traces/golden/SHA256SUMS "$work/traces/SHA256SUMS"
if ! (cd "$work/traces" && sha256sum -c SHA256SUMS) >&2; then
  echo "[telemetry-identity] FAIL: golden traces drift with heartbeat on" >&2
  exit 1
fi

echo "[telemetry-identity] OK (telemetry-on results are byte-identical)" >&2
