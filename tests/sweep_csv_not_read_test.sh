#!/bin/sh
# A sweep CSV left in the working directory is never read back: figures
# come from simulation alone, so a stale or wrong file cannot leak into
# them.
#
# Usage: sh tests/sweep_csv_not_read_test.sh <path-to-fig10_epi_quad>
#
# Runs fig10 --smoke in a clean scratch directory, then plants a
# well-formed but wrong 128-row sweep CSV (the committed sweep's keys,
# made-up numbers) in a second one -- both where a
# smoke run writes its sweep (bench_results/smoke/sweep_quad.csv) and at
# the old cache path (bench_results/sweep_quad_smoke.csv) -- runs fig10
# --smoke there too, and requires identical figure CSVs.
set -e

bin=$1
keys=$(dirname "$0")/../bench_results/sweep_quad.csv
if [ ! -x "$bin" ] || [ ! -r "$keys" ]; then
  echo "usage: $0 <path-to-fig10_epi_quad>" >&2
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
sweep=bench_results/smoke/sweep_quad.csv
fig=bench_results/smoke/fig10_epi_quad.csv

# The committed sweep's scheme/workload keys with every number replaced:
# all schemes look alike, so every reduction in a figure built from this
# would read 0.0%.
awk -F, -v OFS=, '{ for (i = 3; i <= NF; i++) $i = i; print }' "$keys" \
  >"$work/planted/$sweep"
cp "$work/planted/$sweep" "$work/planted/bench_results/sweep_quad_smoke.csv"
rows=$(wc -l <"$work/planted/$sweep")
if [ "$rows" -ne 128 ]; then
  echo "FAIL: expected a 128-row sweep, got $rows rows" >&2
  exit 1
fi

run "$work/planted"
if ! cmp -s "$work/clean/$fig" "$work/planted/$fig"; then
  echo "FAIL: a planted sweep CSV changed the figure:" >&2
  diff "$work/clean/$fig" "$work/planted/$fig" >&2 || true
  exit 1
fi
echo "OK: planted sweep CSVs were not read"
