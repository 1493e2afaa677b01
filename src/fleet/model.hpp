// Per-node failure model and fleet-level aggregation.
//
// FleetModel maps one node index to a deterministic per-node simulation
// (fault lifetime sampling + scheme-class coincidence detection), and
// FleetAccumulator folds the resulting fixed-width field blocks -- in
// strict node-index order -- into fleet metrics: expected annual node
// loss, fleet availability (nines), and uncorrected-error-event quantiles.
//
// The split is the McSystemFn/McMergeFn contract of faults::mc_run, and
// run() is that one call: the producer runs on any worker thread, the
// consumer serialized under the engine's lock in index order, so the
// result is a pure function of the spec -- identical at any thread count
// and chunk size, and after a checkpointed resume.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "faults/mc_engine.hpp"
#include "faults/montecarlo.hpp"
#include "fleet/spec.hpp"

namespace eccsim::fleet {

/// Fixed per-node field block, what one node contributes to an MC chunk
/// (and to its checkpoint line):
///   [0] uncorrected error events over the node lifetime
///   [1] time of the first event in hours (+inf when the node never fails)
///   [2] downtime hours if every event is repaired (spares permitting)
///   [3] counter-saturating (column-or-larger) hard faults sampled
inline constexpr std::size_t kNodeFields = 4;

inline constexpr std::size_t kFieldEvents = 0;
inline constexpr std::size_t kFieldFirstEvent = 1;
inline constexpr std::size_t kFieldDowntime = 2;
inline constexpr std::size_t kFieldHardFaults = 3;

/// Deterministic per-node simulator for one FleetSpec.  Construction
/// precomputes each pool's system shape and filtered FIT rates; the spec
/// must already be validate()-clean.
class FleetModel {
 public:
  explicit FleetModel(const FleetSpec& spec);

  const FleetSpec& spec() const { return spec_; }
  std::uint64_t nodes() const { return nodes_; }

  /// Pool index owning global node `index` (pools are laid out
  /// contiguously in spec order).
  std::size_t pool_of(std::uint64_t index) const;

  /// Simulates node `index` with `rng` (derive it via
  /// faults::mc_system_rng(spec.seed, index)) and fills
  /// fields[0..kNodeFields).  Pure per node: no shared state.
  void node_fields(std::uint64_t index, Rng& rng, double* fields) const;

 private:
  struct PoolRuntime {
    faults::SystemShape shape;
    faults::FitRates rates;
    SchemeClass cls = SchemeClass::kIsolated;
  };

  FleetSpec spec_;
  std::uint64_t nodes_ = 0;
  std::vector<PoolRuntime> runtime_;
  std::vector<std::uint64_t> pool_end_;  ///< exclusive node-index bound
};

/// Aggregated outcome of one pool.
struct PoolResult {
  std::string name;
  std::uint64_t nodes = 0;
  double uncorrected_events = 0;
  std::uint64_t nodes_with_events = 0;
  std::uint64_t nodes_lost = 0;  ///< never repaired (no spare available)
  double downtime_hours = 0;     ///< summed over the pool, after depletion
  double hard_faults = 0;
};

/// Aggregated outcome of the whole fleet.
struct FleetResult {
  std::string name;
  std::string config_hash;
  std::uint64_t nodes = 0;
  double lifetime_hours = 0;

  double uncorrected_events = 0;
  std::uint64_t nodes_with_events = 0;
  std::uint64_t nodes_lost = 0;
  double downtime_hours = 0;

  double annual_node_loss = 0;  ///< expected nodes lost per deployment year
  double availability = 0;      ///< in-service node-hours / total node-hours
  double availability_nines = 0;

  /// Nearest-rank quantiles of uncorrected events per node, and whether
  /// they are exact or reservoir-estimated.
  double events_p50 = 0, events_p99 = 0, events_p999 = 0;
  bool quantiles_exact = true;

  std::vector<PoolResult> pools;
};

/// Retained-sample bound for the event quantiles (same policy as
/// faults::kEolReservoirCap): exhaustive up to this many nodes, a
/// deterministic bottom-k subset beyond it.
inline constexpr std::size_t kFleetReservoirCap = 1 << 16;

/// Folds per-node field blocks into a FleetResult.  add() must be called
/// once per node in strictly increasing index order (mc_run's merge
/// guarantees this); finalize() resolves spare-pool depletion and
/// computes the derived metrics.
class FleetAccumulator {
 public:
  explicit FleetAccumulator(const FleetModel& model);

  void add(std::uint64_t index, const double* fields);
  FleetResult finalize() const;

 private:
  struct Demand {
    double first_time;
    std::uint64_t node;
    bool operator<(const Demand& o) const {
      return first_time != o.first_time ? first_time < o.first_time
                                        : node < o.node;
    }
  };

  const FleetModel* model_;
  std::vector<PoolResult> pools_;
  QuantileReservoir events_;
  std::vector<Demand> demands_;       ///< one per failing node, index order
  std::vector<std::size_t> demand_pool_;
  std::vector<double> demand_repaired_downtime_;
};

/// Evaluates every node of a validated spec through faults::mc_run, node i
/// on faults::mc_system_rng(spec.seed, i), under the run tag
/// "fleet:<config_hash>" -- so a checkpoint recorded under any other spec
/// never resumes -- and returns the finalized result.
FleetResult run(const FleetSpec& spec, const faults::McOptions& opts);

/// The fleet's one output format (docs/OBSERVABILITY.md): a fleet row, then
/// one row per pool.  Every number is at full precision (%.17g, so each
/// double round-trips), and a column that does not apply to a row is blank.
/// Free of timings and execution settings, so it is byte-identical however
/// the run was executed.
Table result_table(const FleetResult& result);

}  // namespace eccsim::fleet
