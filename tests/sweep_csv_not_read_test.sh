#!/bin/sh
# A sweep CSV left in the working directory is never read back: figures
# come from simulation alone, so a stale or wrong file cannot leak into
# them.
#
# Usage: sh tests/sweep_csv_not_read_test.sh <path-to-sweep_figures>
#
# Runs sweep_figures --smoke in a clean scratch directory, then plants a
# well-formed but wrong 128-row sweep CSV per scale (the committed sweep's
# keys, made-up numbers) in a second one -- both where a smoke run writes
# its sweep (bench_results/smoke/sweep_<scale>.csv) and at the old cache
# path (bench_results/sweep_<scale>_smoke.csv) -- runs sweep_figures
# --smoke there too, and requires identical figure CSVs.
set -e

bin=$1
goldens=$(dirname "$0")/../bench_results
if [ ! -x "$bin" ] || [ ! -r "$goldens/sweep_quad.csv" ] ||
   [ ! -r "$goldens/sweep_dual.csv" ]; then
  echo "usage: $0 <path-to-sweep_figures>" >&2
  exit 2
fi
bin=$(cd "$(dirname "$bin")" && pwd)/$(basename "$bin")

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
run() {  # $1 = working directory
  (cd "$1" && env -u ECCSIM_QUICK -u ECCSIM_DRAM -u ECCSIM_TRACE_IN \
    "$bin" --smoke >/dev/null 2>&1)
}

mkdir -p "$work/clean" "$work/planted/bench_results/smoke"
run "$work/clean"

for scale in quad dual; do
  sweep=bench_results/smoke/sweep_$scale.csv
  # The committed sweep's scheme/workload keys with every number replaced:
  # all schemes look alike, so every reduction in a figure built from this
  # would read 0.0%.
  awk -F, -v OFS=, '{ for (i = 3; i <= NF; i++) $i = i; print }' \
    "$goldens/sweep_$scale.csv" >"$work/planted/$sweep"
  cp "$work/planted/$sweep" \
    "$work/planted/bench_results/sweep_${scale}_smoke.csv"
  rows=$(wc -l <"$work/planted/$sweep")
  if [ "$rows" -ne 128 ]; then
    echo "FAIL: expected a 128-row $scale sweep, got $rows rows" >&2
    exit 1
  fi
done

run "$work/planted"
figs=0
for fig in "$work/clean"/bench_results/smoke/*.csv; do
  name=$(basename "$fig")
  case "$name" in sweep_*) continue ;; esac
  figs=$((figs + 1))
  if ! cmp -s "$fig" "$work/planted/bench_results/smoke/$name"; then
    echo "FAIL: a planted sweep CSV changed $name:" >&2
    diff "$fig" "$work/planted/bench_results/smoke/$name" >&2 || true
    exit 1
  fi
done
if [ "$figs" -ne 10 ]; then
  echo "FAIL: expected 10 figure CSVs, got $figs" >&2
  exit 1
fi
echo "OK: planted sweep CSVs were not read ($figs figures)"
