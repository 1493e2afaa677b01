// Sharded execution of one fleet run.
//
// Layer (2) of the fleet subsystem.  A fleet run is split into contiguous
// chunk-range work units; every unit independently produces its chunks'
// per-node field blocks encoded in the MC checkpoint envelope (`mcchunk1`
// lines, see mc_engine.hpp and docs/CHECKPOINTS.md), and the coordinator
// merges all recorded chunks in strict index order into a FleetAccumulator.
//
// Byte-identity argument: each node's fields depend only on
// (spec.seed, node index) via faults::mc_system_rng; the envelope
// round-trips doubles exactly (std::bit_cast hex); and the merge consumes
// the same ordered field stream whatever produced it.  Therefore the
// merged FleetResult -- and its JSON dump -- is byte-identical at any
// shard count and for in-process vs worker-process execution, which
// the identity.fleet_shards ctest gates.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "fleet/model.hpp"
#include "fleet/spec.hpp"

namespace eccsim::obs {
class Heartbeat;
}

namespace eccsim::fleet {

/// One work unit: the half-open chunk range [chunk_lo, chunk_hi).
struct WorkUnit {
  std::uint64_t chunk_lo = 0;
  std::uint64_t chunk_hi = 0;
};

/// Chunk count for a fleet of `nodes` nodes at `chunk_size` nodes/chunk.
std::uint64_t fleet_chunk_count(std::uint64_t nodes, unsigned chunk_size);

/// Node count of chunk `ci` (the last chunk may be short).
unsigned fleet_chunk_nodes(std::uint64_t nodes, unsigned chunk_size,
                           std::uint64_t ci);

/// Envelope identity of a fleet run: mc_run_identity over the
/// "fleet:<config_hash>" tag and the sampling parameters, so a work-unit
/// file produced under any differing spec or chunk size never matches.
std::uint64_t fleet_run_identity(const FleetSpec& spec, unsigned chunk_size);

/// Executes chunks [chunk_lo, chunk_hi) of the fleet and appends each as
/// one `mcchunk1` line to `out`.  This is the whole worker: in-process
/// shards call it with a string stream, `fleetd --worker` calls it with an
/// output file.
void compute_unit(const FleetModel& model, std::uint64_t chunk_lo,
                  std::uint64_t chunk_hi, unsigned chunk_size,
                  std::ostream& out);

struct RunOptions {
  enum class Mode {
    kInProcess,      ///< shards are tasks on a shared runner::ThreadPool
    kWorkerProcess,  ///< shards are spawned `fleetd --worker` processes
  };
  Mode mode = Mode::kInProcess;
  /// Work-unit count; chunks are split into `shards` contiguous ranges.
  unsigned shards = 1;
  /// In-process pool width; 0 = runner::ThreadPool::default_thread_count().
  unsigned threads = 0;
  /// Nodes per chunk; 0 = faults::kMcDefaultChunkSize.  Like the MC
  /// engine, results are identical for any value.
  unsigned chunk_size = 0;
  /// Worker-mode binary (typically argv[0] of fleetd itself).
  std::string worker_binary;
  /// Worker-mode scratch directory for the spec file and the per-shard
  /// work-unit envelopes; created if absent, files are left for
  /// inspection.
  std::string work_dir;
  /// Optional progress sink; ticked per merged chunk under phase "fleet".
  obs::Heartbeat* heartbeat = nullptr;
};

/// Splits [0, nchunks) into `shards` contiguous near-equal ranges; ranges
/// beyond the chunk supply come back empty.
std::vector<WorkUnit> shard_plan(std::uint64_t nchunks, unsigned shards);

/// Runs a validated FleetSpec end to end: plan shards, execute every work
/// unit, merge in strict chunk/node index order, finalize.
class Coordinator {
 public:
  explicit Coordinator(const FleetSpec& spec);

  const FleetModel& model() const { return model_; }

  /// Executes the fleet and returns the merged result.  Throws
  /// std::runtime_error on a failed worker process or a missing chunk.
  FleetResult run(const RunOptions& opts) const;

 private:
  FleetModel model_;
};

}  // namespace eccsim::fleet
