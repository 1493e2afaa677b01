#!/bin/sh
# DDR3 golden check: the committed full-fidelity CSVs must reproduce.
#
# Usage: ./scripts/ddr3_identity_check.sh [path-to-fig10_epi_quad]
#   default binary: build/bench/fig10_epi_quad; fig11_epi_dual,
#   ablation_degraded, ablation_ecc_cache and ablation_rowpolicy are taken
#   from the same directory.
#
# The committed bench_results/sweep_quad.csv and fig10_epi_quad.csv are
# goldens of the paper-faithful DDR3 model; refactors of the DRAM spec
# layer, the simulator or the bench front-end must leave them
# bit-identical.  This script runs the full-fidelity quad sweep in a
# scratch working directory and byte-compares both outputs with the
# committed files -- any divergence in timing, energy, scheduling, or the
# derived figure table fails the gate.  fig11_epi_dual does the same for
# the dual-scale sweep (sweep_dual.csv, fig11_epi_dual.csv): both sweeps
# start their cells from warm-up states shared per warm-up class, and
# each scale has its own classes.  The sweep never takes three paths, so
# three ablations are checked the same way: ablation_degraded (faulty
# banks, the Fig. 6 slow path), ablation_ecc_cache (the dedicated 8-way
# ECC cache) and ablation_rowpolicy (open-page rows: row hits, conflicts
# and the scheduler's open-row wake-up); those runs warm up per cell.
# The tree is only read.  Runs both full 16x8-cell sweeps (~2-5 s each on
# 4 cores; RUNNER_THREADS caps the fan-out) plus ~1 s per ablation.  Also
# registered in ctest as ddr3_identity_check.
set -e

cd "$(dirname "$0")/.."
repo=$(pwd)
bin=${1:-build/bench/fig10_epi_quad}
if [ ! -x "$bin" ]; then
  echo "usage: $0 [path-to-fig10_epi_quad]  ($bin: not an executable)" >&2
  exit 2
fi
bindir=$(cd "$(dirname "$bin")" && pwd)
bin=$bindir/$(basename "$bin")
ablations="ablation_degraded ablation_ecc_cache ablation_rowpolicy"
for a in fig11_epi_dual $ablations; do
  if [ ! -x "$bindir/$a" ]; then
    echo "$0: $bindir/$a: not an executable" >&2
    exit 2
  fi
done

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

echo "[ddr3-identity] simulating the full quad sweep in $work" >&2
(cd "$work" && env -u ECCSIM_SMOKE -u ECCSIM_QUICK -u ECCSIM_DRAM \
  "$bin" >/dev/null)
echo "[ddr3-identity] simulating the full dual sweep" >&2
(cd "$work" && env -u ECCSIM_SMOKE -u ECCSIM_QUICK -u ECCSIM_DRAM \
  "$bindir/fig11_epi_dual" >/dev/null)
for a in $ablations; do
  echo "[ddr3-identity] simulating $a" >&2
  (cd "$work" && env -u ECCSIM_SMOKE -u ECCSIM_QUICK -u ECCSIM_DRAM \
    "$bindir/$a" >/dev/null)
done

fail=0
for f in sweep_quad.csv fig10_epi_quad.csv sweep_dual.csv \
         fig11_epi_dual.csv ablation_degraded.csv ablation_ecc_cache.csv \
         ablation_rowpolicy.csv; do
  if ! cmp -s "$repo/bench_results/$f" "$work/bench_results/$f"; then
    echo "[ddr3-identity] FAIL: bench_results/$f differs from the golden:" >&2
    diff "$repo/bench_results/$f" "$work/bench_results/$f" | head -20 >&2 ||
      true
    fail=1
  fi
done
if [ "$fail" -ne 0 ]; then
  echo "[ddr3-identity] (the DDR3 contract is bit-identity; see" >&2
  echo "[ddr3-identity]  docs/DRAM_SPECS.md)" >&2
  exit 1
fi
echo "[ddr3-identity] OK (DDR3 sweeps and ablations match the goldens)" >&2
