// Synthetic workload generators.
//
// The paper drives its evaluation with 12 eight-core multiprogrammed SPEC
// CPU2006 workloads and 4 multithreaded PARSEC workloads (Sec. IV-B),
// characterized for the reader only by their memory bandwidth utilization
// (Fig. 9), which splits them into a low-bandwidth bin (Bin1) and a
// high-bandwidth bin (Bin2) for Figs. 10-17.
//
// We cannot ship SPEC/PARSEC binaries, so each named workload is a
// parameterized synthetic generator calibrated to land in the paper's bin
// with a plausible access rate, write share, footprint, and
// streaming-vs-random mix for that benchmark (DESIGN.md records this
// substitution).  What the evaluation actually measures -- per-scheme
// energy per access, ECC-update traffic as a function of write rate and
// locality, background-power sensitivity to idleness -- depends only on
// these stream statistics, which the generators reproduce.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace eccsim::trace {

/// One memory operation emitted by a core's generator, in 64B-line units
/// within the workload's global footprint.
struct MemOp {
  std::uint64_t line = 0;   ///< 64B-line index (global address space)
  bool is_write = false;
  std::uint32_t gap = 0;    ///< non-memory instructions preceding this op
};

/// Static description of one named workload.
struct WorkloadDesc {
  std::string name;
  int bin = 1;  ///< 1 = low bandwidth, 2 = high bandwidth (Fig. 9)
  bool multithreaded = false;  ///< PARSEC: cores share one footprint
  double apki = 10.0;          ///< L2(LLC) accesses per kilo-instruction
  double write_fraction = 0.3;
  std::uint64_t footprint_bytes = 64ULL << 20;
  double stream_fraction = 0.5;  ///< sequential vs uniform-random accesses
  double hot_fraction = 0.1;     ///< hot subset receiving reuse traffic
  double hot_access_prob = 0.6;  ///< probability a random access hits it
  /// Probability that a random access is soon followed by its 128B-pair
  /// sibling: the spatial locality that makes larger memory lines useful
  /// (Fig. 14's streamcluster discussion).
  double sibling_locality = 0.5;
};

/// The paper's 16 workloads (12 SPEC multiprogrammed, 4 PARSEC).
const std::vector<WorkloadDesc>& paper_workloads();

/// Looks a workload up by name; throws std::out_of_range if unknown.
const WorkloadDesc& workload_by_name(const std::string& name);

/// Index of a workload in paper_workloads(); throws std::out_of_range if
/// unknown.
std::size_t workload_index(const std::string& name);

/// The canonical stimulus seed of workload `index` in the paper sweeps:
/// substream `index` of root seed 1, exactly what bench_common's
/// (workload x scheme) fan-out uses (runner::substream_seed agreement is
/// locked by a test).  A trace recorded with this seed -- tracetool's
/// default -- replays bit-identically into the committed sweeps.
std::uint64_t paper_sweep_seed(std::size_t index);
std::uint64_t paper_sweep_seed(const std::string& name);

/// Per-core generator: an infinite deterministic stream of MemOps.
class CoreGenerator {
 public:
  /// `core` selects the private footprint slice for multiprogrammed
  /// workloads (eight instances of the same benchmark, Sec. IV-B) and the
  /// RNG substream either way.
  CoreGenerator(const WorkloadDesc& desc, unsigned core, unsigned cores,
                std::uint64_t seed);

  /// Next memory operation (gap first, then the access).
  MemOp next();

  /// next() without the gap: the same RNG draws in the same order, so the
  /// stream stays in step with next(), but the gap's logarithm is skipped
  /// and `gap` is 0.
  MemOp next_untimed();

  const WorkloadDesc& desc() const { return desc_; }

 private:
  std::uint64_t random_line();
  /// The draws after the gap's: line and is_write (gap left 0).
  MemOp next_access();

  WorkloadDesc desc_;
  Rng rng_;
  std::uint64_t region_base_;   ///< first 64B line of this core's region
  std::uint64_t region_lines_;
  std::uint64_t hot_lines_;     ///< hot-set size, a prefix of the region
  std::uint64_t stream_pos_ = 0;  ///< below region_lines_
  double gap_mean_;
  std::int64_t pending_sibling_ = -1;  ///< queued 128B-pair follow-up
};

}  // namespace eccsim::trace
