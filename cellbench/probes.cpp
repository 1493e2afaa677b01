#include "probes.hpp"

#include <chrono>

#include "cache/cache.hpp"
#include "dram/memory_system.hpp"
#include "sim/system.hpp"
#include "trace/source.hpp"
#include "tracefile/reader.hpp"
#include "tracefile/replay.hpp"

namespace cellbench {

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

unsigned cores() { return sim::CpuConfig{}.cores; }

/// Pulls the warm-up op count from `source` in SystemSim's warm-up order.
Stream pull(trace::TraceSource& source) {
  Stream s;
  const std::uint64_t rounds = warmup_ops_per_core();
  s.ops.reserve(rounds * cores());
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < rounds; ++i) {
    for (unsigned c = 0; c < cores(); ++c) s.ops.push_back(source.next(c));
  }
  s.seconds = since(t0);
  return s;
}

}  // namespace

std::uint64_t warmup_ops_per_core() {
  const cache::CacheConfig llc;
  return 3 * (llc.size_bytes / llc.line_bytes) / cores();
}

Stream synthetic_stream(const trace::WorkloadDesc& workload,
                        std::uint64_t seed) {
  trace::SyntheticSource source(workload, cores(), seed);
  return pull(source);
}

Stream replay_stream(const std::string& path) {
  tracefile::ReplaySource source(path);
  return pull(source);
}

CacheRun cache_access(const std::vector<trace::MemOp>& ops) {
  cache::Cache llc(cache::CacheConfig{});
  const auto t0 = Clock::now();
  for (const auto& op : ops) {
    (void)llc.access(op.line, op.is_write, cache::LineKind::kData);
  }
  return CacheRun{since(t0), llc.stats().hit_rate()};
}

std::vector<tracefile::PostOp> read_post_trace(const std::string& path) {
  tracefile::TraceReader reader(path);
  std::vector<tracefile::PostOp> ops;
  ops.reserve(reader.total_ops());
  tracefile::PostOp op;
  while (reader.next(op)) ops.push_back(op);
  return ops;
}

DramReplay replay_dram(const ecc::SchemeDesc& scheme,
                       const std::vector<tracefile::PostOp>& ops) {
  dram::MemorySystem mem(scheme.mem_config(dram::Generation::kDdr3));
  DramReplay r;
  std::size_t next = 0;
  const auto t0 = Clock::now();
  while (next < ops.size() || mem.outstanding() > 0) {
    while (next < ops.size() && ops[next].cycle <= mem.cycle()) {
      const tracefile::PostOp& op = ops[next];
      if (!mem.enqueue_addr(op.addr, op.is_write, op.line_class, next + 1)) {
        ++r.rejects;
        break;
      }
      ++next;
    }
    if (mem.outstanding() == 0) ++r.idle_ticks;
    mem.tick();
    mem.completions().clear();
    ++r.ticks;
  }
  r.seconds = since(t0);
  r.requests = ops.size();
  return r;
}

}  // namespace cellbench
