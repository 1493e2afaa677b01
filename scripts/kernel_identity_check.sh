#!/bin/sh
# Kernel bit-identity gate for the GF(2^8) region-kernel layer.
#
# Usage: ./scripts/kernel_identity_check.sh [path-to-fig10_epi_quad]
#   default binary: build/bench/fig10_epi_quad
#
# The kernel layer's contract (docs/KERNELS.md) is that ECCSIM_KERNEL
# changes wall-clock only, never results.  This script runs the fig10
# smoke sweep once under default dispatch, then once per kernel the
# host supports (read from the run's kernels.json provenance document),
# and requires the sweep CSV and the derived figure table to be
# byte-identical across all of them.  Smoke fidelity keeps it CI-sized
# (~seconds); the tests in tests/gf_kernels_test.cpp cover the
# primitives exhaustively, this gate covers the composed pipeline.
set -e

bin=${1:-build/bench/fig10_epi_quad}
cd "$(dirname "$0")/.."
if [ ! -x "$bin" ]; then
  echo "usage: $0 [path-to-fig10_epi_quad]  ($bin: not an executable)" >&2
  exit 2
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

run_sweep() {  # $1 = label, $2... = extra env assignments
  label=$1; shift
  env -u ECCSIM_KERNEL -u ECCSIM_QUICK -u ECCSIM_DRAM ECCSIM_SMOKE=1 \
      "$@" "$bin" >/dev/null
  cp bench_results/smoke/sweep_quad.csv "$tmp/sweep.$label"
  cp bench_results/smoke/fig10_epi_quad.csv "$tmp/fig10.$label"
}

echo "[kernel-identity] smoke sweep under default dispatch" >&2
run_sweep default
# The provenance document written by the run lists what this host can
# actually execute -- force only those (forcing simd on a non-SSSE3
# host is a deliberate exit-2, not a skip).
kernels=$(sed -n '/"available"/,/\]/p' results/smoke/fig10_epi_quad.kernels.json |
          grep -o '"[a-z0-9]*"' | tr -d '"' | grep -x 'scalar\|slice8\|simd')
[ -n "$kernels" ] || { echo "[kernel-identity] FAIL: no kernels parsed from provenance doc" >&2; exit 1; }

fail=0
for k in $kernels; do
  echo "[kernel-identity] smoke sweep under ECCSIM_KERNEL=$k" >&2
  run_sweep "$k" ECCSIM_KERNEL="$k"
  for f in sweep fig10; do
    if ! cmp -s "$tmp/$f.default" "$tmp/$f.$k"; then
      echo "[kernel-identity] FAIL: $f CSV differs under ECCSIM_KERNEL=$k" >&2
      fail=1
    fi
  done
done

if [ "$fail" -ne 0 ]; then
  echo "[kernel-identity] FAIL: kernel choice changed simulation results" >&2
  echo "[kernel-identity] (the kernel contract is bit-identity; see docs/KERNELS.md)" >&2
  exit 1
fi
echo "[kernel-identity] OK (results bit-identical across: default $(echo $kernels))" >&2
