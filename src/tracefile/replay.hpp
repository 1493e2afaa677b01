// Replay and recording TraceSources: the bridge between the .ecctrace
// container and the simulator's stimulus interface (trace/source.hpp).
//
//   ReplaySource     feeds a recorded pre-LLC trace back into SystemSim.
//                    It decodes one chunk at a time, in one pass, straight
//                    into per-core FIFOs (a vector and a head index each),
//                    so replay depends only on the per-core streams -- a
//                    trace recorded under one scheme's consumption order
//                    (or tracetool's round-robin) replays identically
//                    under any other.
//   RecordingSource  a tee: passes an inner source through unchanged
//                    while appending every op to a TraceWriter.
//                    Observation-only by construction, so a recorded run
//                    is bit-identical to an unrecorded one.  It keeps
//                    TraceSource's round-robin next_rounds(), so a block
//                    pull records the ops in per-op call order.
//   record_workload_trace
//                    generator-direct capture (no simulation): what
//                    `tracetool record` and the tests use to produce
//                    replayable traces cheaply.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tracefile/reader.hpp"
#include "tracefile/writer.hpp"
#include "trace/source.hpp"

namespace eccsim::tracefile {

class ReplaySource final : public trace::TraceSource {
 public:
  /// Opens a pre-LLC trace.  Throws TraceError on any structural problem
  /// or if the trace's capture point is post-LLC (not replayable).  The
  /// workload named in the header must exist (std::out_of_range
  /// otherwise) -- its calibrated descriptor parameterizes the simulator.
  explicit ReplaySource(const std::string& path);

  /// Next recorded op for `core`.  Throws TraceError when the trace is
  /// exhausted: a short trace fails loudly rather than silently looping
  /// or diverging from live generation.
  trace::MemOp next(unsigned core) override;

  /// Decodes chunks until every core's FIFO holds `rounds` ops, then
  /// copies each core's column out of its FIFO.  A trace that runs out
  /// first is pulled round-robin through next(), which throws the same
  /// TraceError, at the same op, as that many next() calls would.
  void next_rounds(trace::MemOp* out, std::size_t rounds) override;

  const trace::WorkloadDesc& workload() const override { return desc_; }
  unsigned cores() const override { return reader_.meta().cores; }
  std::string describe() const override;

  const TraceMeta& meta() const { return reader_.meta(); }
  std::uint64_t ops_replayed() const { return replayed_; }
  const ReaderCounters& reader_counters() const {
    return reader_.counters();
  }

 private:
  /// One core's decoded ops not yet replayed: ops[head..] in order.
  struct Fifo {
    std::vector<trace::MemOp> ops;
    std::size_t head = 0;
  };

  /// next()'s slow path, kept out of line so next() stays a few loads:
  /// decodes chunks onto the FIFOs' tails until `core`'s FIFO is
  /// non-empty.  Throws TraceError if `core` is beyond the header's
  /// count, the trace is exhausted, or decode_chunk() throws.
  [[gnu::noinline]] void refill(unsigned core);
  /// Decodes the next chunk onto the FIFOs' tails; false if the trace is
  /// exhausted.  Throws TraceError if a chunk is corrupt or a record's
  /// core is beyond the header's count -- before any op of that chunk is
  /// replayed.
  bool decode_chunk();

  TraceReader reader_;
  trace::WorkloadDesc desc_;
  std::vector<Fifo> fifos_;
  std::vector<std::uint64_t> prev_line_;  ///< the codec's delta scratch
  std::uint64_t replayed_ = 0;
};

class RecordingSource final : public trace::TraceSource {
 public:
  /// Wraps `inner`, recording every op it hands out to a fresh pre-LLC
  /// trace at `path` (header metadata from the inner source + `seed`).
  RecordingSource(std::unique_ptr<trace::TraceSource> inner,
                  const std::string& path, std::uint64_t seed,
                  std::size_t ops_per_chunk = kDefaultOpsPerChunk);

  trace::MemOp next(unsigned core) override {
    const trace::MemOp op = inner_->next(core);
    writer_.append(op, core);
    return op;
  }

  const trace::WorkloadDesc& workload() const override {
    return inner_->workload();
  }
  unsigned cores() const override { return inner_->cores(); }
  std::string describe() const override;

  TraceWriter& writer() { return writer_; }

 private:
  std::unique_ptr<trace::TraceSource> inner_;
  TraceWriter writer_;
};

/// Records `ops_per_core` synthetic ops per core for `desc` into `path`,
/// round-robin across cores (core 0 first each round).  Returns the total
/// number of ops written.  With `seed = trace::paper_sweep_seed(name)`
/// the result replays bit-identically into the paper sweeps.
std::uint64_t record_workload_trace(const trace::WorkloadDesc& desc,
                                    unsigned cores,
                                    std::uint64_t ops_per_core,
                                    std::uint64_t seed,
                                    const std::string& path);

}  // namespace eccsim::tracefile
