// Shared infrastructure for the figure/table reproducers.
//
// Figures 9-17 all consume the same sweep: every workload x every scheme at
// one system scale (bench/sweep_figures.cpp builds all of them, one sweep
// per scale).  The sweep's cells are independent, so they fan out over the
// runner (src/runner), whose threads claim cells in index order -- thread
// count comes from RUNNER_THREADS (default: all cores) and results are
// bit-identical at any thread count because every cell owns its simulator
// and draws its workload stimulus from a per-workload RNG substream of the
// root seed.
// A first fan-out warms the LLC once per (workload, warm-up class) --
// sim::WarmState, exact by construction -- and each cell starts from its
// class's state (replayed or recorded sweeps warm up per cell).
//
// Each sweep writes sweep_<scale>.csv beside its figure CSVs.  The
// committed bench_results/*.csv are goldens to compare against, never
// inputs.  Full-fidelity DDR3 runs write to bench_results/ and results/;
// every other run writes to bench_results/[ddr4/|ddr5/][quick/|smoke/]
// (same under results/), so it never clobbers a golden.
//
// Every run writes results/<bench>.manifest.json (git SHA, the whole
// RunConfig, the GF kernel, host, timings, exit status;
// docs/OBSERVABILITY.md), its one provenance record: every JSON document
// it writes carries the manifest as `metadata`.  Besides the stdout table
// and <name>.csv, every emit() also writes results/<name>.json, and each
// sweep writes results/sweep_<scale>.json with per-cell metrics, timings,
// and the realized parallel speedup.  With --stats, one
// results/<bench>.stats.json holds every cell of the process and the
// scope profile.  An output that cannot be written fails the run: the
// path goes to stderr, the manifest says "failed", the exit code is 1.
#pragma once

#include <string>
#include <vector>

#include "common/table.hpp"
#include "dram/spec.hpp"
#include "ecc/scheme.hpp"
#include "faults/mc_engine.hpp"
#include "obs/heartbeat.hpp"
#include "runner/runner.hpp"
#include "sim/system.hpp"
#include "stats/stats.hpp"
#include "trace/workload.hpp"

namespace eccsim::bench {

/// Every setting of a bench run, resolved once by init(): the environment
/// variables below are the outer layer, command-line flags override them.
/// Nothing is written back to the environment.
struct RunConfig {
  enum class Fidelity { kFull, kQuick, kSmoke };
  /// --quick / --smoke (ECCSIM_QUICK, ECCSIM_SMOKE; smoke wins if both)
  Fidelity fidelity = Fidelity::kFull;
  /// --dram G (ECCSIM_DRAM): ddr3, ddr4, or ddr5
  dram::Generation dram = dram::Generation::kDdr3;
  /// --stats (ECCSIM_STATS), --stats-epoch=N (STATS_EPOCH; implies
  /// --stats), --trace=DIR (STATS_TRACE; implies --stats), and
  /// STATS_TRACE_LIMIT.  The epoch defaults to 500 memory cycles under
  /// --smoke, else 10 000.
  stats::Config stats;
  /// --trace-in DIR, --trace-out DIR, --trace-point pre|post
  /// (ECCSIM_TRACE_IN, ECCSIM_TRACE_OUT, ECCSIM_TRACE_POINT)
  std::string trace_in;
  std::string trace_out;
  tracefile::CapturePoint trace_point = tracefile::CapturePoint::kPreLlc;
  /// --mc-systems N (ECCSIM_MC_SYSTEMS); 0 = scale the bench's budget by
  /// fidelity
  unsigned mc_systems = 0;
  /// --mc-chunk N, --mc-target-rel-ci X, --mc-checkpoint FILE
  /// (ECCSIM_MC_CHUNK, ECCSIM_MC_TARGET_REL_CI, ECCSIM_MC_CHECKPOINT)
  faults::McOptions mc;
  /// --status FILE, --progress (ECCSIM_STATUS, ECCSIM_PROGRESS) and
  /// ECCSIM_STATUS_INTERVAL_MS; installed into obs::Heartbeat::global()
  obs::HeartbeatConfig heartbeat;
};

/// Parses the environment and then the flags into the run config, and
/// installs the end-of-run profile report (wall-clock + peak RSS on
/// stderr; scripts/run_all.sh parses it).  Valued flags accept both
/// `--flag value` and `--flag=value`.  Also:
///   --list-workloads  print the 16 paper workloads and exit
///   --help            document every flag and environment variable
/// Call first in main(); unknown flags and malformed values exit with
/// code 2.
void init(int argc, char** argv);

/// The configuration init() resolved (defaults before init()).
const RunConfig& run_config();

/// Monte Carlo engine knobs from the run config.  With --stats, the returned
/// options carry a registry so the engine's mc.* counters and rel-CI
/// series land in results/<bench>.stats.json.
faults::McOptions mc_options();

/// Monte Carlo system budget: `full` scaled down by --quick / --smoke
/// (1/5 and 1/20, floor 200), or the --mc-systems override verbatim.
unsigned mc_systems(unsigned full);

/// Basename of the running binary ("bench" before init()).
const std::string& bench_name();

/// DRAM generation selected by --dram / ECCSIM_DRAM (DDR3 when unset).
dram::Generation dram_generation();

/// Per-run stats collector for benches that build SystemSims directly
/// (the standard sweep() wires its own): nullptr when stats are off, so
/// callers can assign the result to SimOptions::stats unconditionally.
/// Owned by bench_common; it and every sweep cell's collector are merged
/// into results/<bench>.stats.json (and their traces flushed) when the
/// process exits.  `workload`/`scheme` label the cell and name its trace
/// file.
stats::Collector* new_collector(const std::string& workload,
                                const std::string& scheme);

/// Instructions per run (--quick / --smoke shrink it).
std::uint64_t target_instructions();

/// SimOptions carrying the run's instruction target and DRAM generation;
/// benches that build SystemSims directly start from these.
sim::SimOptions sim_options();

/// Simulates all (workload x scheme) cells at one scale, writes
/// sweep_<scale>.csv and results/sweep_<scale>.json, and returns the rows
/// in (workload, scheme) order.  Holds one warm-up state (~1.5 MB) per
/// (workload, warm-up class) between its two fan-outs and frees them all
/// before it returns.  Per-cell files (--trace, --trace-out) and the
/// per-cell --trace-in fallback are named <workload>_<scheme>_<scale>.
std::vector<sim::RunResult> sweep(ecc::SystemScale scale);

/// Percent reduction of `ours` relative to `baseline` ((1 - ours/base)*100).
double reduction_pct(double baseline, double ours);

/// Prints the table, saves CSV under bench_results/<name>.csv, and saves
/// JSON (table cells + elapsed wall-clock) with emit_json, both in the
/// run's output subdirectory.
void emit(const std::string& name, const Table& table);

/// Saves results/<name>.json in the run's output subdirectory: `bench`
/// (= name), the run manifest as `metadata`, then every member of `body`.
void emit_json(const std::string& name, const runner::Json& body);

}  // namespace eccsim::bench
