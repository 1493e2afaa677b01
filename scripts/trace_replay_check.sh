#!/bin/sh
# Record -> replay bit-identity check for the trace subsystem.
#
# Usage: ./scripts/trace_replay_check.sh [build-dir]
#   default build dir: build (needs tools/tracetool and bench/sweep_figures)
#
# Records every paper workload with tracetool (60000 ops/core covers the
# 49152-op warmup plus the measured smoke phase), then runs the quad and
# dual smoke sweeps (sweep_figures) twice in separate scratch working
# directories: once live from the synthetic generators and once replaying
# the recorded traces via --trace-in.  Pre-LLC stimulus does not depend on
# the scheme or the scale, so one recording per workload serves all 256
# cells.  Both 16x8 sweep CSVs -- every workload x scheme cell, all
# columns -- every figure CSV and stdout must be byte-identical, which
# pins down the whole chain: seed derivation, trace encode/decode, and
# the TraceSource plumbing through sim::SystemSim.
set -e

builddir=${1:-build}
cd "$(dirname "$0")/.."
tool="$builddir/tools/tracetool"
bench="$builddir/bench/sweep_figures"
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

echo "[trace-replay] live sweeps (synthetic generators)" >&2
mkdir "$work/live" "$work/replay"
(cd "$work/live" && "$bench" >stdout.txt 2>/dev/null)

echo "[trace-replay] replay sweeps (--trace-in)" >&2
(cd "$work/replay" && "$bench" --trace-in "$work/traces" \
  >stdout.txt 2>/dev/null)

for scale in quad dual; do
  if [ ! -s "$work/live/bench_results/smoke/sweep_$scale.csv" ]; then
    echo "[trace-replay] FAIL: the live run wrote no $scale sweep CSV" >&2
    exit 1
  fi
done
if ! diff -r "$work/live/bench_results" "$work/replay/bench_results" >&2; then
  echo "[trace-replay] FAIL: replay CSVs differ from live" >&2
  exit 1
fi
if ! cmp -s "$work/live/stdout.txt" "$work/replay/stdout.txt"; then
  echo "[trace-replay] FAIL: replay stdout differs from live" >&2
  diff "$work/live/stdout.txt" "$work/replay/stdout.txt" >&2 || true
  exit 1
fi
# One row per workload x scheme cell.
cells=$(cat "$work/live/bench_results/smoke/sweep_"*.csv | wc -l)
echo "[trace-replay] OK ($cells sweep cells bit-identical live vs replay)" >&2
