// Sweep results and their JSON encoding (the aggregate half of the runner).
//
// Every evaluation figure in the paper is a grid of independent cells --
// one `sim::SystemSim` per (workload x ECC scheme) point.  The bench
// front-end (bench::sweep) fans them out with runner::parallel_for and
// files each result *by cell index* into a `Report`, so the result vector
// is bit-identical whatever the thread count: each cell owns its
// simulator, its workload generators, and (via `substream_seed`) its own
// deterministic RNG substream, and nothing is shared between cells but
// the result slots and a read-only warm-up state.
//
// `Report` carries per-cell wall-clock plus the fan-out wall-clock and
// its serial-equivalent cost (their ratio is the realized speedup), and
// the `to_json` / `write_json` helpers emit the machine-readable
// `results/<name>.json` files described in docs/REPRODUCING.md (the bench
// front-end stamps them with the run manifest).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runner/json.hpp"
#include "sim/system.hpp"

namespace eccsim::runner {

/// A finished cell: the simulator's metrics plus how long it took.
struct CellResult {
  sim::RunResult result;
  double wall_seconds = 0;
};

/// Everything one fan-out produced, in cell order.
struct Report {
  std::vector<CellResult> cells;
  unsigned threads = 1;      ///< thread count used
  double wall_seconds = 0;   ///< fan-out wall-clock (start to last finish)
  /// Serial cost: the summed wall-clock of the fan-out's work items, which
  /// may include work no cell's own wall_seconds counts (a shared warm-up)
  double cell_seconds = 0;

  /// Realized parallel speedup: serial-equivalent time over wall time.
  double speedup() const {
    return wall_seconds > 0 ? cell_seconds / wall_seconds : 1.0;
  }
};

/// Derives a statistically independent 64-bit seed for substream `stream`
/// of `root_seed` (SplitMix64 fan-out).  Cells that must observe the same
/// stimulus -- e.g. every ECC scheme evaluated on one workload -- should
/// share a stream index; unrelated cells should not.
std::uint64_t substream_seed(std::uint64_t root_seed, std::uint64_t stream);

// --- JSON encoding ---------------------------------------------------------

/// Full per-cell metrics: identity, performance (IPC), energy breakdown
/// (EPI split into dynamic/background, per-component pJ), traffic (MAPI,
/// bandwidth, data/ECC read+write counters), and wall-clock.
Json to_json(const CellResult& cell);
/// The whole fan-out: metadata-free cell array plus thread/timing summary.
Json to_json(const Report& report);

/// Writes `doc` (pretty-printed, trailing newline) to `path`, creating
/// parent directories; returns false on I/O failure.
bool write_json(const std::string& path, const Json& doc);

}  // namespace eccsim::runner
