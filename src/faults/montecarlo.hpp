// Monte Carlo lifetime simulation of multi-channel memory systems under
// field DRAM fault rates, plus the closed-form models it is validated
// against.  Drives Fig. 2 (mean time between faults in different channels),
// Fig. 8 (end-of-life fraction of memory with materialized correction
// bits), Fig. 18 (probability of multi-channel faults inside one scrub
// window), Table III's EOL columns, and the Sec. VI-B HPC stall estimate.
//
// Sampling: each chip's faults of each type arrive as independent Poisson
// processes (the exponential failure distribution the paper assumes).
// Execution runs on the chunked Monte Carlo engine (mc_engine.hpp) over
// the runner's index-ordered fan-out: deterministic per-system RNG
// substreams with in-order merging make every result bit-identical at any
// thread count and chunk size, and each study accepts McOptions for
// confidence-interval early stop, chunk-granular checkpoint/resume, and
// mc.* observability.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "faults/fault_model.hpp"
#include "faults/mc_engine.hpp"

namespace eccsim::faults {

/// Geometry of one simulated system, in the units that matter for
/// reliability: channels x ranks x chips-per-rank, with 8 banks per chip.
struct SystemShape {
  unsigned channels = 8;
  unsigned ranks_per_channel = 4;
  unsigned chips_per_rank = 9;
  unsigned banks_per_rank = 8;

  unsigned chips_per_channel() const {
    return ranks_per_channel * chips_per_rank;
  }
  unsigned total_chips() const { return channels * chips_per_channel(); }
  /// Logical banks per channel (bank-pair bookkeeping granularity).
  unsigned banks_per_channel() const {
    return ranks_per_channel * banks_per_rank;
  }
  unsigned total_banks() const { return channels * banks_per_channel(); }
};

/// One sampled fault event.
struct FaultEvent {
  double time_hours = 0;
  FaultType type = FaultType::kBit;
  unsigned channel = 0;
  unsigned rank = 0;
  unsigned chip = 0;

  bool operator<(const FaultEvent& o) const { return time_hours < o.time_hours; }
};

/// Samples every fault event of one system over `lifetime_hours`.
std::vector<FaultEvent> sample_lifetime(const SystemShape& shape,
                                        const FitRates& rates,
                                        double lifetime_hours, Rng& rng);

// ---------------------------------------------------------------------------
// Fig. 2: mean time between faults in different channels.

struct MtbfResult {
  double analytic_hours = 0;     ///< 1 / (total fault rate of the system)
  /// Mean observed gap between successive faults in different channels.
  /// NaN when gaps_observed == 0: "no data" is distinct from "zero MTBF"
  /// (the JSON writer serializes the NaN as null).  Check has_data().
  double simulated_hours = std::numeric_limits<double>::quiet_NaN();
  std::uint64_t gaps_observed = 0;
  std::uint64_t events_sampled = 0;
  McRunInfo mc;

  bool has_data() const { return gaps_observed > 0; }
};

/// Analytic mean time between faults anywhere in the system.  Faults in
/// *different* channels differ from this only by the (tiny) probability of
/// two consecutive faults sharing a channel.  +inf when the total rate or
/// the chip population is zero (a system that never faults).
double analytic_mtbf_hours(const SystemShape& shape, double total_fit);

MtbfResult mtbf_between_channels(const SystemShape& shape,
                                 const FitRates& rates, unsigned systems,
                                 double lifetime_hours, std::uint64_t seed,
                                 const McOptions& opts = {});

// ---------------------------------------------------------------------------
// Fig. 8 / Table III: end-of-life materialized-correction-bit fraction.

struct EolResult {
  double mean_fraction = 0;    ///< average fraction of memory in faulty pairs
  double p999_fraction = 0;    ///< 99.9th percentile across systems
  /// Whether p999_fraction is exact (every sample retained) or estimated
  /// from the bounded-memory reservoir (systems > reservoir capacity).
  bool p999_exact = true;
  double systems_with_any = 0; ///< fraction of systems with >= 1 faulty pair
  std::uint64_t events_sampled = 0;
  McRunInfo mc;
};

/// Retained-sample bound for the Fig. 8 tail percentile: populations up to
/// this size get exact percentiles; beyond it a deterministic bottom-k
/// reservoir (common/stats.hpp) bounds memory at this many samples.
inline constexpr std::size_t kEolReservoirCap = 1 << 16;

/// Simulates `systems` systems for `lifetime_hours` and reports the
/// fraction of memory whose ECC correction bits end up stored in memory
/// (i.e. the memory of bank pairs marked faulty), Sec. III-E.
EolResult eol_materialized_fraction(const SystemShape& shape,
                                    const FitRates& rates, unsigned systems,
                                    double lifetime_hours, std::uint64_t seed,
                                    const McOptions& opts = {});

// ---------------------------------------------------------------------------
// Fig. 18 / Sec. VI-C: scrub-interval analysis.

struct ScrubWindowResult {
  double analytic_probability = 0;   ///< P(>=2 channels fault in any window)
  double simulated_probability = 0;
  std::uint64_t bad_systems = 0;     ///< systems with >= 1 multi-channel window
  std::uint64_t events_sampled = 0;
  McRunInfo mc;
};

/// Analytic probability that faults occur in more than one channel within
/// any single detection window of `window_hours` during `lifetime_hours`.
double analytic_multichannel_window_probability(const SystemShape& shape,
                                                double total_fit,
                                                double window_hours,
                                                double lifetime_hours);

ScrubWindowResult multichannel_window_probability(
    const SystemShape& shape, const FitRates& rates, double window_hours,
    double lifetime_hours, unsigned systems, std::uint64_t seed,
    const McOptions& opts = {});

// ---------------------------------------------------------------------------
// Sec. VI-B: HPC stall estimate.

struct HpcStallParams {
  double total_memory_bytes = 2.0 * 1024 * 1024 * 1024 * 1024 * 1024;  // 2 PB
  double node_memory_bytes = 128.0 * 1024 * 1024 * 1024;               // 128 GB
  double nic_bandwidth_bytes_per_s = 1.0 * 1024 * 1024 * 1024;         // 1 GB/s
  double chip_capacity_bytes = 256.0 * 1024 * 1024;                    // 2 Gb
  double lifetime_hours = 7 * 24 * 365.25;
};

/// Fraction of time the whole HPC system is stalled migrating threads off
/// nodes with column-or-larger faults and reconstructing correction bits.
double hpc_stall_fraction(const HpcStallParams& params,
                          const FitRates& rates);

struct HpcStallResult {
  double analytic_fraction = 0;
  double simulated_fraction = 0;
  std::uint64_t events_sampled = 0;  ///< migration events across all systems
  McRunInfo mc;
};

/// Monte Carlo cross-check of hpc_stall_fraction: samples the Poisson
/// stream of column-or-larger faults over the whole machine for `systems`
/// independent machine lifetimes and accumulates the per-event stall.
HpcStallResult hpc_stall_fraction_mc(const HpcStallParams& params,
                                     const FitRates& rates, unsigned systems,
                                     std::uint64_t seed,
                                     const McOptions& opts = {});

}  // namespace eccsim::faults
