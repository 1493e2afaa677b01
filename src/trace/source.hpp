// TraceSource: the simulator's single supplier of workload stimulus.
//
// sim::SystemSim consumes per-core MemOp streams through this interface
// and does not care where they come from: live synthetic generation
// (SyntheticSource, wrapping the calibrated CoreGenerators), replay of a
// recorded .ecctrace file (tracefile::ReplaySource), or a recording tee
// (tracefile::RecordingSource).  The contract that makes record/replay
// bit-identical is per-core determinism: for a given source
// configuration, the sequence of ops returned for each core is fixed and
// independent of how calls to different cores interleave.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/workload.hpp"

namespace eccsim::trace {

class TraceSource {
 public:
  virtual ~TraceSource() = default;

  /// Next memory operation for `core` (0-based, < cores()).
  virtual MemOp next(unsigned core) = 0;

  /// next() for a caller that never reads the op's gap (the simulator's
  /// LLC warm-up, which has no timing).  It advances `core`'s stream
  /// exactly as next() does and returns the same line and is_write, but a
  /// source may skip computing the gap and return 0 there.  The default is
  /// next() itself, which is what recording and replay keep: a recording
  /// must hold the full op, and a replay has the gap already decoded.
  virtual MemOp next_untimed(unsigned core) { return next(core); }

  /// The workload whose stimulus this source carries.
  virtual const WorkloadDesc& workload() const = 0;

  /// Number of per-core streams.
  virtual unsigned cores() const = 0;

  /// Human-readable provenance ("synthetic seed=..." / "replay of ...").
  virtual std::string describe() const = 0;
};

/// Live synthetic generation: one CoreGenerator per core, exactly the
/// seed-derivation the simulator has always used -- SystemSim results are
/// bit-identical to the pre-TraceSource code.
class SyntheticSource final : public TraceSource {
 public:
  SyntheticSource(const WorkloadDesc& desc, unsigned cores,
                  std::uint64_t seed);

  MemOp next(unsigned core) override { return gens_[core].next(); }
  MemOp next_untimed(unsigned core) override {
    return gens_[core].next_untimed();
  }
  const WorkloadDesc& workload() const override { return desc_; }
  unsigned cores() const override {
    return static_cast<unsigned>(gens_.size());
  }
  std::string describe() const override;

 private:
  WorkloadDesc desc_;
  std::uint64_t seed_;
  std::vector<CoreGenerator> gens_;
};

}  // namespace eccsim::trace
