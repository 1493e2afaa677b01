#!/bin/sh
# Telemetry identity gate: observation must not perturb simulation.
#
# Usage: ./scripts/telemetry_identity_check.sh [fig10_epi_quad] [tracetool]
#   defaults: build/bench/fig10_epi_quad, build/tools/tracetool
#
# The observability layer (heartbeat snapshots, run manifests, --stats
# counters, OpenMetrics export) is strictly observation-only: enabling
# all of it must leave every simulated result bit-identical.  This script
# proves that two ways:
#   1. Runs the fig10 smoke sweep twice -- telemetry fully off, then with
#      --stats, --status, and --progress all on -- and requires the sweep
#      CSV and the figure CSV to be byte-identical (a sibling of
#      scripts/ddr3_identity_check.sh, which gates the DRAM spec layer
#      the same way).
#   2. Re-records the committed golden traces with the heartbeat enabled
#      and checks them against traces/golden/SHA256SUMS.
# It also sanity-checks the telemetry side-channel itself: the status
# file must parse as a final snapshot and the manifest must say
# "completed".  ~20 s on a CI runner (two smoke sweeps).
set -e

bin=${1:-build/bench/fig10_epi_quad}
tool=${2:-build/tools/tracetool}
cd "$(dirname "$0")/.."
for b in "$bin" "$tool"; do
  if [ ! -x "$b" ]; then
    echo "usage: $0 [fig10_epi_quad] [tracetool]  ($b: not an executable)" >&2
    exit 2
  fi
done

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/off" "$work/on" "$work/traces"

sweep_csv=bench_results/smoke/sweep_quad.csv
fig_csv=bench_results/smoke/fig10_epi_quad.csv

echo "[telemetry-identity] smoke sweep with telemetry off" >&2
rm -f "$sweep_csv" "$fig_csv"
env -u ECCSIM_STATS -u ECCSIM_STATUS -u ECCSIM_PROGRESS -u ECCSIM_QUICK \
  -u ECCSIM_DRAM ECCSIM_SMOKE=1 "$bin" >/dev/null
cp "$sweep_csv" "$work/off/sweep.csv"
cp "$fig_csv" "$work/off/fig.csv"

echo "[telemetry-identity] smoke sweep with all telemetry on" >&2
rm -f "$sweep_csv" "$fig_csv"
env -u ECCSIM_QUICK -u ECCSIM_DRAM ECCSIM_SMOKE=1 ECCSIM_STATS=1 \
  ECCSIM_STATUS_INTERVAL_MS=0 \
  "$bin" --status "$work/status.json" --progress >/dev/null 2>"$work/on.err"
cp "$sweep_csv" "$work/on/sweep.csv"
cp "$fig_csv" "$work/on/fig.csv"

fail=0
for f in sweep.csv fig.csv; do
  if ! cmp -s "$work/off/$f" "$work/on/$f"; then
    echo "[telemetry-identity] FAIL: $f differs between telemetry on/off:" >&2
    diff "$work/off/$f" "$work/on/$f" >&2 || true
    fail=1
  fi
done
if [ "$fail" != 0 ]; then
  echo "[telemetry-identity] (the observability contract is that stats and" >&2
  echo "[telemetry-identity]  heartbeats never feed back into simulation;" >&2
  echo "[telemetry-identity]  see docs/OBSERVABILITY.md)" >&2
  exit 1
fi

# The telemetry itself must have materialized: a final heartbeat snapshot
# and a completed manifest.
grep -q '"schema": "eccsim.heartbeat/1"' "$work/status.json"
grep -q '"final": true' "$work/status.json"
manifest=results/smoke/fig10_epi_quad.manifest.json
grep -q '"status": "completed"' "$manifest"
[ -s results/smoke/fig10_epi_quad.prom ]

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
