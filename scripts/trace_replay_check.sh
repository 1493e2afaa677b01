#!/bin/sh
# Record -> replay bit-identity check for the trace subsystem.
#
# Usage: ./scripts/trace_replay_check.sh [build-dir]
#   default build dir: build (needs tools/tracetool and bench/fig10_epi_quad)
#
# Records every paper workload with tracetool (60000 ops/core covers the
# 49152-op warmup plus the measured smoke phase), then runs the Fig. 10
# quad-channel sweep twice in separate scratch working directories:
# once live from the synthetic generators and once replaying the
# recorded traces via --trace-in.  The full 16x8 sweep CSV -- every
# workload x scheme cell, all columns -- must be byte-identical, which
# pins down the whole chain: seed derivation, trace encode/decode, and
# the TraceSource plumbing through sim::SystemSim.
set -e

builddir=${1:-build}
cd "$(dirname "$0")/.."
tool="$builddir/tools/tracetool"
bench="$builddir/bench/fig10_epi_quad"
if [ ! -x "$tool" ] || [ ! -x "$bench" ]; then
  echo "usage: $0 [build-dir]  (need $tool and $bench)" >&2
  exit 2
fi
tool=$(cd "$(dirname "$tool")" && pwd)/$(basename "$tool")
bench=$(cd "$(dirname "$bench")" && pwd)/$(basename "$bench")

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
export ECCSIM_SMOKE=1

echo "[trace-replay] recording all paper workloads (60000 ops/core)" >&2
"$tool" record --all --out "$work/traces" --ops-per-core 60000 >/dev/null

echo "[trace-replay] live sweep (synthetic generators)" >&2
mkdir "$work/live" "$work/replay"
(cd "$work/live" && "$bench" >stdout.txt 2>/dev/null)

echo "[trace-replay] replay sweep (--trace-in)" >&2
(cd "$work/replay" && "$bench" --trace-in "$work/traces" \
  >stdout.txt 2>/dev/null)

csv=bench_results/smoke/sweep_quad.csv
if ! cmp -s "$work/live/$csv" "$work/replay/$csv"; then
  echo "[trace-replay] FAIL: replay sweep CSV differs from live" >&2
  diff "$work/live/$csv" "$work/replay/$csv" >&2 || true
  exit 1
fi
if ! cmp -s "$work/live/stdout.txt" "$work/replay/stdout.txt"; then
  echo "[trace-replay] FAIL: replay stdout differs from live" >&2
  diff "$work/live/stdout.txt" "$work/replay/stdout.txt" >&2 || true
  exit 1
fi
cells=$(wc -l <"$work/live/$csv")  # one row per workload x scheme cell
echo "[trace-replay] OK ($cells sweep cells bit-identical live vs replay)" >&2
