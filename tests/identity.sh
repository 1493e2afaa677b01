#!/bin/sh
# Identity harness.  Every row of the table in tests/CMakeLists.txt is one
# ctest, labelled "identity", that reruns a result with one thing changed
# and byte-compares it with a baseline.  Run them with `ctest -L identity`,
# or one with `ctest -R identity.<row>`.
#
# Usage: sh tests/identity.sh ROW BUILD_DIR [NAME=value ...] [ARG ...]
#   Runs in ROW's own directory, <build>/tests/identity/ROW, and writes
#   nothing outside it.  NAME=value pairs are exported for the variant;
#   the ARGs go to its command line.
#
# A row without a case below is a sweep row: `sweep_figures --smoke ARG...`
# must leave bench_results/ and stdout byte-identical to those of the
# `smoke` row, a ctest fixture that runs once per ctest invocation.  The
# cases below add a setup step to a sweep row, or give a row its own
# baseline.  Exit 77 (ctest's skip) means only that a kernel row names a
# kernel this host cannot run.
set -e

row=$1 build=$2
shift 2
repo=$(cd "$(dirname "$0")/.." && pwd)
case $PWD in
  */identity/"$row") rm -rf ./* ;;
  *) echo "identity.sh: run in <build>/tests/identity/$row" >&2; exit 2 ;;
esac

# The one place output-affecting variables are cleared, so that a row
# differs from its baseline only by what its table entry sets.
# ECCSIM_CHECK passes through: checked ctest runs set it on purpose.
unset ECCSIM_SMOKE ECCSIM_QUICK ECCSIM_DRAM ECCSIM_KERNEL ECCSIM_TRACE_IN \
  ECCSIM_TRACE_OUT ECCSIM_TRACE_POINT ECCSIM_STATS ECCSIM_STATUS \
  ECCSIM_PROGRESS
for v in $(env | sed -n 's/^\(ECCSIM_MC_[A-Z_]*\)=.*/\1/p'); do unset "$v"; done
while [ $# -gt 0 ]; do
  case $1 in *=*) export "$1"; shift ;; *) break ;; esac
done

sweep=$build/bench/sweep_figures
tracetool=$build/tools/tracetool
base=../smoke

fail() { echo "identity.$row: FAIL: $*" >&2; exit 1; }
same() {  # $2 must be byte-identical to $1, a file or a whole tree
  diff -r "$1" "$2" >diff.txt 2>&1 ||
    { head -40 diff.txt >&2; fail "$2 differs from $1"; }
}

case $row in
  smoke)
    "$sweep" --smoke >stdout.txt
    n=$(ls bench_results/smoke/*.csv | wc -l)
    [ "$n" -eq 12 ] || fail "expected 12 CSVs, got $n"
    n=$(cat bench_results/smoke/sweep_*.csv | wc -l)
    [ "$n" -eq 256 ] || fail "expected 2 x 128 sweep cells, got $n"
    exit 0 ;;
  kernel_*)
    # ablation_threshold drives the ECC Parity manager, whose parity
    # updates go through the dispatched GF kernels (gf::gf_xor_region), so
    # a forced kernel must reproduce the unforced run's CSV and stdout.
    # Force only what the baseline's manifest lists as runnable here:
    # forcing simd on a host without SSSE3 is a deliberate exit 2.  The
    # scalar oracle is always listed, so a list without it is a failure.
    bin=$build/bench/ablation_threshold
    mkdir ref run
    (cd ref && env -u ECCSIM_KERNEL "$bin" --smoke >../ref.out)
    k=ref/results/smoke/ablation_threshold.manifest.json
    avail=,$(sed -n 's/.*"kernels_available": "\([^"]*\)".*/\1/p' "$k"),
    case $avail in *,scalar,*) ;; *) fail "no kernel list in $k" ;; esac
    case $avail in
      *",$ECCSIM_KERNEL,"*) ;;
      *) echo "identity.$row: $ECCSIM_KERNEL unavailable: skipped" >&2
         exit 77 ;;
    esac
    (cd run && "$bin" --smoke >../run.out)
    same ref.out run.out
    same ref/bench_results run/bench_results
    exit 0 ;;
  replay)
    # One recording per workload serves every scheme and both scales;
    # 60000 ops per core cover the warm-up and the smoke measured phase.
    "$tracetool" record --all --out traces --ops-per-core 60000 >/dev/null
    set -- --trace-in traces "$@" ;;
  sweep_csv_not_read)
    # A well-formed but wrong sweep per scale -- the committed keys with
    # made-up numbers, so every figure built from it would read 0.0% --
    # where a smoke run writes its sweep and at the old cache path.
    mkdir -p bench_results/smoke
    for s in quad dual; do
      awk -F, -v OFS=, '{ for (i = 3; i <= NF; i++) $i = i; print }' \
        "$repo/bench_results/sweep_$s.csv" >"bench_results/smoke/sweep_$s.csv"
      cp "bench_results/smoke/sweep_$s.csv" "bench_results/sweep_${s}_smoke.csv"
      n=$(wc -l <"bench_results/smoke/sweep_$s.csv")
      [ "$n" -eq 128 ] || fail "expected a 128-row $s sweep, got $n rows"
    done ;;
  goldens)
    # Full-fidelity DDR3 must reproduce the committed CSVs: both sweeps,
    # Figs. 9-17 and ablation_xor_cache, the three ablations for paths the
    # sweep never takes (faulty banks, the dedicated ECC cache, open-page
    # rows), and the 48,000-node fleet demo.
    "$sweep" >/dev/null
    for b in ablation_degraded ablation_ecc_cache ablation_rowpolicy \
      fleet_demo; do
      "$build/bench/$b" >/dev/null
    done
    n=0
    for f in bench_results/*.csv; do
      same "$repo/$f" "$f"
      n=$((n + 1))
    done
    [ "$n" -eq 16 ] || fail "expected 16 CSVs, compared $n"
    exit 0 ;;
  golden_traces*)
    # The committed traces must validate, match SHA256SUMS, and re-record
    # byte for byte from the generators (docs/TRACES.md).
    golden=$repo/traces/golden
    (cd "$golden" && sha256sum -c SHA256SUMS) >&2 ||
      fail "traces/golden does not match its SHA256SUMS"
    for f in "$golden"/*.ecctrace; do
      "$tracetool" validate "$f" >/dev/null
      "$tracetool" record --workload "$(basename "$f" .ecctrace)" \
        --cores 2 --ops-per-core 512 --out traces/ >/dev/null
      same "$f" "traces/$(basename "$f")"
    done
    exit 0 ;;
  mc_resume_*)
    # Baseline: an uninterrupted run.  Variant: a run slowed per chunk,
    # SIGKILLed once a chunk is checkpointed, then resumed.
    bin=$build/bench/$1
    mkdir ref run
    (cd ref && "$bin" --smoke >../ref.out 2>/dev/null)
    (cd run && exec env ECCSIM_MC_CHUNK_DELAY_MS=200 "$bin" --smoke \
      --mc-checkpoint ../ck.txt >/dev/null 2>&1) &
    pid=$! i=0
    until grep -q '^mcchunk1 ' ck.txt 2>/dev/null || [ $i -ge 1500 ]; do
      sleep 0.02
      i=$((i + 1))
    done
    kill -9 $pid 2>/dev/null || true
    wait $pid 2>/dev/null || true
    grep -q '^mcchunk1 ' ck.txt || fail "no chunk checkpointed before the kill"
    (cd run &&
      "$bin" --smoke --mc-checkpoint ../ck.txt >../res.out 2>../res.err)
    # The kill must land mid-run: every tag that resumed restored some
    # chunks but not all of them.
    sed -n 's|^\[mc\] .*: resuming \([0-9]*\)/\([0-9]*\) chunks from .*|\1 \2|p' \
      res.err >resumed.txt
    [ -s resumed.txt ] || { cat res.err >&2; fail "nothing resumed"; }
    while read -r k n; do
      [ "$k" -gt 0 ] && [ "$k" -lt "$n" ] ||
        fail "resumed $k/$n chunks: the kill did not land mid-run"
    done <resumed.txt
    same ref.out res.out
    same ref/bench_results run/bench_results
    m=run/results/smoke/$1.manifest.json
    grep -q '"resumed": true' "$m" || fail "$m lacks \"resumed\": true"
    grep -q '"status": "completed"' "$m" || fail "$m is not completed"
    exit 0 ;;
esac

# A sweep row.
"$sweep" --smoke "$@" >stdout.txt
case $row in
  sweep_csv_not_read) same $base/bench_results/smoke bench_results/smoke ;;
  *) same $base/bench_results bench_results ;;
esac
case $row in
  telemetry_on)
    # --stats appends its summary to stdout, so only the CSVs compare.
    # The telemetry itself must have materialized, stats.json with a
    # non-empty merged registry and a profile of the DRAM scheduler.
    grep -q '"schema": "eccsim.heartbeat/1"' status.json &&
      grep -q '"final": true' status.json || fail "no final heartbeat snapshot"
    grep -q '"status": "completed"' results/smoke/sweep_figures.manifest.json ||
      fail "the manifest is not completed"
    s=results/smoke/sweep_figures.stats.json
    python3 -c '
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["merged"]["stats"], "empty merged registry"
assert doc["profile"]["dram.scheduler"]["calls"] > 0, "no scheduler scope"
' "$s" || fail "$s lacks a merged registry or a dram.scheduler profile" ;;
  *) same $base/stdout.txt stdout.txt ;;
esac
