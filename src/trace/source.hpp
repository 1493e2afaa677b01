// TraceSource: the simulator's single supplier of workload stimulus.
//
// sim::SystemSim consumes per-core MemOp streams through this interface
// and does not care where they come from: live synthetic generation
// (SyntheticSource, wrapping the calibrated CoreGenerators), replay of a
// recorded .ecctrace file (tracefile::ReplaySource), or a recording tee
// (tracefile::RecordingSource).  The contract that makes record/replay
// bit-identical is per-core determinism: for a given source
// configuration, the sequence of ops returned for each core is fixed and
// independent of how calls to different cores interleave.  The LLC
// warm-up, which has no timing, pulls whole rounds at a time through
// next_rounds() instead of one next() per op.
#pragma once

#include <cstddef>
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

  /// The next `rounds` whole rounds, for a caller that never reads an
  /// op's gap (the simulator's LLC warm-up): out[r * cores() + c] is the
  /// op that round r's next(c) would return, and every core's stream
  /// advances by `rounds` ops, exactly as that many round-robin next()
  /// calls (core 0 first each round) would advance it.  A source may skip
  /// computing the gaps and leave them 0.  The default is those next()
  /// calls, in that order: a recording keeps it, because its file holds
  /// the ops in call order.  Throws what those calls would throw.
  virtual void next_rounds(MemOp* out, std::size_t rounds);

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
  /// Draws each core's column from a local copy of its generator
  /// (CoreGenerator::next_untimed, gaps 0) and writes the copy back.
  void next_rounds(MemOp* out, std::size_t rounds) override;
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
