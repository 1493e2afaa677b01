#!/bin/sh
# Builds, tests, and regenerates every paper table/figure plus ablations.
#
# Usage: ./scripts/run_all.sh [--quick | --smoke] [--no-build]
#   --quick     lower-fidelity sweep (200k instructions per cell); outputs
#               go to bench_results/quick/ and results/quick/
#   --smoke     CI-sized run (50k instructions per cell); outputs go to
#               bench_results/smoke/ and results/smoke/
# Without either, every binary rewrites the committed full-fidelity
# bench_results/*.csv; they must come out byte-identical.
#   --no-build  skip configure/build/ctest (binaries must already exist)
#
# Sweeps fan out over all cores by default; set RUNNER_THREADS=N to cap
# (results are bit-identical at any thread count).  The fault Monte Carlo
# benches (fig02/fig08/fig18/sec6b/fleet_demo) additionally honor
# ECCSIM_MC_SYSTEMS, ECCSIM_MC_CHUNK, ECCSIM_MC_TARGET_REL_CI, and
# ECCSIM_MC_CHECKPOINT -- exported here, they pass straight through to
# every binary (results are bit-identical at any thread count and chunk
# size; see docs/REPRODUCING.md).  Every binary prints its table to stdout
# and writes CSV + JSON result files; this driver adds [n/total] progress
# and per-binary wall-clock to stderr.
set -e

build=1
for arg in "$@"; do
  case "$arg" in
    --quick) export ECCSIM_QUICK=1 ;;
    --smoke) export ECCSIM_SMOKE=1 ;;
    --no-build) build=0 ;;
    *) echo "unknown option: $arg" >&2; exit 2 ;;
  esac
done

cd "$(dirname "$0")/.."

if [ "$build" = 1 ]; then
  if command -v ninja >/dev/null 2>&1; then gen="-G Ninja"; else gen=""; fi
  # shellcheck disable=SC2086
  cmake -B build -S . $gen
  cmake --build build -j "$(nproc)"
  ctest --test-dir build --output-on-failure -j "$(nproc)"
fi

total=0
for b in build/bench/*; do
  [ -f "$b" ] && [ -x "$b" ] && total=$((total + 1))
done
n=0
start=$(date +%s)
errlog=$(mktemp)
profiles=$(mktemp)
trap 'rm -f "$errlog" "$profiles"' EXIT
for b in build/bench/*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  n=$((n + 1))
  name=$(basename "$b")
  echo "[$n/$total] $name" >&2
  t0=$(date +%s)
  # Stderr is teed through a file so the bench's [eccsim-profile] line
  # (wall-clock + peak RSS, emitted by bench::init's atexit report) can be
  # collected for the end-of-run summary table.
  case "$name" in
    microbench*) "$b" --benchmark_min_time=0.05 2>"$errlog" ;;
    *) "$b" 2>"$errlog" ;;
  esac || { cat "$errlog" >&2; exit 1; }
  cat "$errlog" >&2
  grep '^\[eccsim-profile\] bench=' "$errlog" >>"$profiles" || true
  echo "[$n/$total] $name done in $(($(date +%s) - t0))s" >&2
done
echo "all $n bench binaries done in $(($(date +%s) - start))s" >&2

if [ -s "$profiles" ]; then
  {
    echo ""
    echo "--- per-binary profile (from [eccsim-profile]) ---"
    printf '%-32s %12s %12s\n' "binary" "wall (s)" "peak RSS (MB)"
    # Parse key=value fields by name rather than by position so a missing
    # or garbled field (e.g. peak RSS unavailable on this platform)
    # degrades to "n/a" instead of shifting columns or breaking the table.
    awk '{
      bench = "n/a"; wall = "n/a"; rss = "n/a"
      for (i = 1; i <= NF; i++) {
        eq = index($i, "=")
        if (eq < 2 || eq == length($i)) continue
        key = substr($i, 1, eq - 1)
        val = substr($i, eq + 1)
        if (key == "bench") bench = val
        else if (key == "wall_seconds" && val ~ /^[0-9]+([.][0-9]+)?$/) wall = val
        else if (key == "peak_rss_mb" && val ~ /^[0-9]+([.][0-9]+)?$/) rss = val
      }
      printf "%-32s %12s %12s\n", bench, wall, rss
    }' "$profiles"
  } >&2
fi
