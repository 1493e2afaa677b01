#!/bin/sh
# Kernel bit-identity gate for the GF(2^8) region-kernel layer.
#
# Usage: ./scripts/kernel_identity_check.sh [path-to-sweep_figures]
#   default binary: build/bench/sweep_figures
#
# The kernel layer's contract (docs/KERNELS.md) is that ECCSIM_KERNEL
# changes wall-clock only, never results.  This script runs the smoke
# sweeps (both scales, every sweep-derived figure) once under default
# dispatch, then once per kernel the host supports (read from the run's
# kernels.json provenance document), each in its own scratch working
# directory, and requires every CSV -- both sweep CSVs and the derived
# figure tables -- to be byte-identical across all of them.  Smoke
# fidelity keeps it CI-sized (~seconds); the tests in
# tests/gf_kernels_test.cpp cover the primitives exhaustively, this gate
# covers the composed pipeline.
set -e

bin=${1:-build/bench/sweep_figures}
cd "$(dirname "$0")/.."
if [ ! -x "$bin" ]; then
  echo "usage: $0 [path-to-sweep_figures]  ($bin: not an executable)" >&2
  exit 2
fi
bin=$(cd "$(dirname "$bin")" && pwd)/$(basename "$bin")

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

run_sweep() {  # $1 = label, $2... = extra env assignments
  label=$1; shift
  mkdir "$tmp/$label"
  (cd "$tmp/$label" &&
    env -u ECCSIM_KERNEL -u ECCSIM_QUICK -u ECCSIM_DRAM ECCSIM_SMOKE=1 \
      "$@" "$bin" >/dev/null)
}

echo "[kernel-identity] smoke sweeps under default dispatch" >&2
run_sweep default
csvs=$(ls "$tmp/default/bench_results/smoke/"*.csv | wc -l)
[ "$csvs" -eq 12 ] || { echo "[kernel-identity] FAIL: expected 12 CSVs, got $csvs" >&2; exit 1; }
# The provenance document written by the run lists what this host can
# actually execute -- force only those (forcing simd on a non-SSSE3
# host is a deliberate exit-2, not a skip).
kernels=$(sed -n '/"available"/,/\]/p' \
            "$tmp/default/results/smoke/$(basename "$bin").kernels.json" |
          grep -o '"[a-z0-9]*"' | tr -d '"' | grep -x 'scalar\|slice8\|simd')
[ -n "$kernels" ] || { echo "[kernel-identity] FAIL: no kernels parsed from provenance doc" >&2; exit 1; }

fail=0
for k in $kernels; do
  echo "[kernel-identity] smoke sweeps under ECCSIM_KERNEL=$k" >&2
  run_sweep "$k" ECCSIM_KERNEL="$k"
  if ! diff -r "$tmp/default/bench_results" "$tmp/$k/bench_results" >&2; then
    echo "[kernel-identity] FAIL: CSVs differ under ECCSIM_KERNEL=$k" >&2
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "[kernel-identity] FAIL: kernel choice changed simulation results" >&2
  echo "[kernel-identity] (the kernel contract is bit-identity; see docs/KERNELS.md)" >&2
  exit 1
fi
echo "[kernel-identity] OK (results bit-identical across: default $(echo $kernels))" >&2
