#!/bin/sh
# DDR3 golden check: the committed full-fidelity CSVs must reproduce.
#
# Usage: ./scripts/ddr3_identity_check.sh [path-to-fig10_epi_quad]
#   default binary: build/bench/fig10_epi_quad
#
# The committed bench_results/sweep_quad.csv and fig10_epi_quad.csv are
# goldens of the paper-faithful DDR3 model; refactors of the DRAM spec
# layer, the simulator or the bench front-end must leave them
# bit-identical.  This script runs the full-fidelity quad sweep in a
# scratch working directory and byte-compares both outputs with the
# committed files -- any divergence in timing, energy, scheduling, or the
# derived figure table fails the gate.  The tree is only read.  Runs the
# full 16x8-cell sweep (~5 s on 4 cores; RUNNER_THREADS caps the fan-out).
# Also registered in ctest as ddr3_identity_check.
set -e

cd "$(dirname "$0")/.."
repo=$(pwd)
bin=${1:-build/bench/fig10_epi_quad}
if [ ! -x "$bin" ]; then
  echo "usage: $0 [path-to-fig10_epi_quad]  ($bin: not an executable)" >&2
  exit 2
fi
bin=$(cd "$(dirname "$bin")" && pwd)/$(basename "$bin")

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

echo "[ddr3-identity] simulating the full quad sweep in $work" >&2
(cd "$work" && env -u ECCSIM_SMOKE -u ECCSIM_QUICK -u ECCSIM_DRAM \
  "$bin" >/dev/null)

fail=0
for f in sweep_quad.csv fig10_epi_quad.csv; do
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
echo "[ddr3-identity] OK (DDR3 sweep is bit-identical to the committed CSVs)" >&2
