#include "tracefile/replay.hpp"

#include <optional>

#include "tracefile/codec.hpp"

namespace eccsim::tracefile {

namespace {

TraceMeta recording_meta(const trace::TraceSource& inner,
                         std::uint64_t seed) {
  TraceMeta meta;
  meta.point = CapturePoint::kPreLlc;
  meta.cores = inner.cores();
  meta.seed = seed;
  meta.workload = inner.workload().name;
  return meta;
}

}  // namespace

ReplaySource::ReplaySource(const std::string& path) : reader_(path) {
  if (reader_.meta().point != CapturePoint::kPreLlc) {
    throw TraceError("ecctrace: only pre-LLC traces are replayable (" +
                     path + " is " + to_string(reader_.meta().point) + ")");
  }
  if (reader_.meta().cores == 0) {
    throw TraceError("ecctrace: zero cores in trace header of " + path);
  }
  desc_ = trace::workload_by_name(reader_.meta().workload);
  fifos_.resize(reader_.meta().cores);
}

trace::MemOp ReplaySource::next(unsigned core) {
  if (core >= fifos_.size() || fifos_[core].head == fifos_[core].ops.size()) {
    refill(core);
  }
  Fifo& fifo = fifos_[core];
  ++replayed_;
  return fifo.ops[fifo.head++];
}

void ReplaySource::next_rounds(trace::MemOp* out, std::size_t rounds) {
  for (const Fifo& fifo : fifos_) {
    while (fifo.ops.size() - fifo.head < rounds) {
      if (!decode_chunk()) {
        TraceSource::next_rounds(out, rounds);  // throws where next() does
        return;
      }
    }
  }
  const std::size_t n = fifos_.size();
  for (std::size_t c = 0; c < n; ++c) {
    Fifo& fifo = fifos_[c];
    const trace::MemOp* in = fifo.ops.data() + fifo.head;
    for (std::size_t r = 0; r < rounds; ++r) out[r * n + c] = in[r];
    fifo.head += rounds;
  }
  replayed_ += rounds * n;
}

void ReplaySource::refill(unsigned core) {
  if (core >= fifos_.size()) {
    throw TraceError("ecctrace: replay asked for core " +
                     std::to_string(core) + " but trace has " +
                     std::to_string(fifos_.size()) + " cores");
  }
  while (fifos_[core].head == fifos_[core].ops.size()) {
    if (!decode_chunk()) {
      throw TraceError(
          "ecctrace: trace exhausted replaying " + reader_.path() +
          " (core " + std::to_string(core) + " after " +
          std::to_string(replayed_) +
          " ops); re-record with more --ops-per-core");
    }
  }
}

bool ReplaySource::decode_chunk() {
  TraceReader::Chunk chunk;
  if (!reader_.next_chunk(chunk)) return false;
  // Drop each FIFO's replayed prefix once it is at least half the FIFO,
  // so a core pulled far behind the others costs amortized O(1) per op.
  for (Fifo& fifo : fifos_) {
    if (fifo.head * 2 >= fifo.ops.size()) {
      fifo.ops.erase(fifo.ops.begin(),
                     fifo.ops.begin() +
                         static_cast<std::ptrdiff_t>(fifo.head));
      fifo.head = 0;
    }
  }
  std::optional<std::uint32_t> stray_core;
  decode_pre_records(chunk.data, chunk.size, chunk.op_count, prev_line_,
                     [&](std::uint32_t c, const trace::MemOp& op) {
                       if (c < fifos_.size()) {
                         fifos_[c].ops.push_back(op);
                       } else if (!stray_core) {
                         stray_core = c;
                       }
                     });
  if (stray_core) {
    throw TraceError("ecctrace: record for core " +
                     std::to_string(*stray_core) +
                     " exceeds the header's core count");
  }
  return true;
}

std::string ReplaySource::describe() const {
  return "replay of " + reader_.path() + " (" + desc_.name + ", " +
         std::to_string(reader_.total_ops()) + " ops)";
}

RecordingSource::RecordingSource(std::unique_ptr<trace::TraceSource> inner,
                                 const std::string& path, std::uint64_t seed,
                                 std::size_t ops_per_chunk)
    : inner_(std::move(inner)),
      writer_(path, recording_meta(*inner_, seed), ops_per_chunk) {}

std::string RecordingSource::describe() const {
  return inner_->describe() + " -> recording " + writer_.path();
}

std::uint64_t record_workload_trace(const trace::WorkloadDesc& desc,
                                    unsigned cores,
                                    std::uint64_t ops_per_core,
                                    std::uint64_t seed,
                                    const std::string& path) {
  TraceMeta meta;
  meta.point = CapturePoint::kPreLlc;
  meta.cores = cores;
  meta.seed = seed;
  meta.workload = desc.name;
  TraceWriter writer(path, meta);
  std::vector<trace::CoreGenerator> gens;
  gens.reserve(cores);
  for (unsigned c = 0; c < cores; ++c) {
    gens.emplace_back(desc, c, cores, seed);
  }
  for (std::uint64_t i = 0; i < ops_per_core; ++i) {
    for (unsigned c = 0; c < cores; ++c) {
      writer.append(gens[c].next(), c);
    }
  }
  writer.close();
  return writer.counters().ops;
}

}  // namespace eccsim::tracefile
