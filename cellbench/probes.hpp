// Per-layer probes for the traced run: each drives one module through its
// public functions, outside the simulator, on the same input a cell feeds
// it, and reports host time with the work count that normalises it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ecc/scheme.hpp"
#include "trace/workload.hpp"
#include "tracefile/format.hpp"

namespace cellbench {

using namespace eccsim;

/// Ops per core SystemSim::run streams through the LLC before measuring
/// (three LLC capacities across all cores).
std::uint64_t warmup_ops_per_core();

/// An op stream in warm-up order (one op per core per round) and the host
/// seconds spent pulling it from its source.
struct Stream {
  std::vector<trace::MemOp> ops;
  double seconds = 0;
};

/// trace::SyntheticSource::next over a cell's warm-up ops.
Stream synthetic_stream(const trace::WorkloadDesc& workload,
                        std::uint64_t seed);

/// tracefile::ReplaySource::next over the same number of ops from the
/// pre-LLC trace at `path` (the source is opened before timing starts).
Stream replay_stream(const std::string& path);

struct CacheRun {
  double seconds = 0;
  double hit_rate = 0;
};

/// Feeds `ops` to a fresh cache::Cache(CacheConfig{}) via access().
CacheRun cache_access(const std::vector<trace::MemOp>& ops);

/// Reads every record of a post-LLC trace into memory.
std::vector<tracefile::PostOp> read_post_trace(const std::string& path);

struct DramReplay {
  double seconds = 0;
  std::uint64_t ticks = 0;
  std::uint64_t idle_ticks = 0;  ///< ticks with nothing in flight
  std::uint64_t requests = 0;
  std::uint64_t rejects = 0;  ///< enqueue_addr calls refused (queue full)
};

/// Replays a recorded post-LLC stream into a fresh
/// dram::MemorySystem(scheme.mem_config()): each request is enqueued at its
/// recorded cycle (a refused one is retried every cycle after, holding the
/// ones behind it), then tick() runs until outstanding() == 0.
DramReplay replay_dram(const ecc::SchemeDesc& scheme,
                       const std::vector<tracefile::PostOp>& ops);

}  // namespace cellbench
