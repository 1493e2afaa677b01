// Workload composition and the correctness oracle of the sweep-cell
// benchmark.
//
// A sweep cell is one sim::SystemSim run of one paper workload on one
// Table II scheme at quad-equivalent scale, DDR3, full fidelity -- the
// unit of work a figure sweep fans out.  A benchmark workload is an
// ordered list of cells (workload-major, Table II scheme order inside).
// Each cell carries the reference result it must reproduce; a cell that
// throws or differs from it is a failed operation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ecc/scheme.hpp"
#include "sim/system.hpp"
#include "trace/workload.hpp"

namespace cellbench {

using namespace eccsim;

/// Full fidelity: instructions per cell, as the committed sweeps use.
inline constexpr std::uint64_t kTargetInstructions = 1'000'000;
/// Ops per core in each recorded replay trace: the warm-up's 49 152 plus
/// the measured phase with headroom.
inline constexpr std::uint64_t kReplayOpsPerCore = 60'000;

/// The benchmark workloads, in the order BENCHMARK.json lists them.
const std::vector<std::string>& benchmark_workloads();

/// Paper workloads a benchmark workload covers, in cell order.  Throws
/// std::invalid_argument for an unknown benchmark workload.
std::vector<std::string> paper_workloads_of(const std::string& workload);

/// Stimulus seed of paper workload `index` under root seed `root`: the
/// derivation trace::paper_sweep_seed applies to root 1.
std::uint64_t workload_seed(std::uint64_t root, std::size_t index);

/// What a run must reproduce.  `row` is the 15-field CSV row of the
/// committed sweeps (sweep_quad.csv column order, %.17g); `llc` adds the
/// LLC counters when the reference is a run of this benchmark (the
/// committed CSVs do not carry them).  Empty means "not known yet".
struct Expected {
  std::string row;
  std::string llc;
};

struct Cell {
  std::string id;  ///< "workload/scheme", plus "/f<N>" for faulty banks
  ecc::SchemeDesc scheme;
  const trace::WorkloadDesc* workload = nullptr;
  sim::SimOptions opts;  ///< trace_in set for replayed cells
  Expected expected;
};

/// Builds the workload's cells for root seed `root`.  Replayed cells read
/// `trace_dir`/<paper workload>.ecctrace (see record_traces).
std::vector<Cell> make_cells(const std::string& workload, std::uint64_t root,
                             const std::string& trace_dir);

/// True when the workload's cells replay recorded stimulus.
bool replays(const std::string& workload);

/// Records one pre-LLC trace per paper workload of `workload` into
/// `trace_dir` (tracefile::record_workload_trace at the cell seeds).
void record_traces(const std::string& workload, std::uint64_t root,
                   const std::string& trace_dir);

/// Fills every cell's expected result from the committed references at
/// root seed 1: bench_results/sweep_quad.csv for the sweeps, the
/// benchmark's own expected/<workload>.csv for the replayed cells.  Throws
/// std::runtime_error if a file or row is missing.
void load_golden(std::vector<Cell>& cells, const std::string& workload,
                 const std::string& repo_root);

/// The run's CSV row (sweep_quad.csv layout) and its LLC counters.
std::string result_row(const sim::RunResult& r);
std::string llc_row(const sim::RunResult& r);

/// Empty if `r` matches the cell's expected result, else a description of
/// the first difference.
std::string check(const Cell& cell, const sim::RunResult& r);

/// Records `r` as the cell's reference where none is known yet.
void adopt(Cell& cell, const sim::RunResult& r);

}  // namespace cellbench
