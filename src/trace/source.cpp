#include "trace/source.hpp"

namespace eccsim::trace {

void TraceSource::next_rounds(MemOp* out, std::size_t rounds) {
  const unsigned n = cores();
  for (std::size_t r = 0; r < rounds; ++r) {
    for (unsigned c = 0; c < n; ++c) *out++ = next(c);
  }
}

SyntheticSource::SyntheticSource(const WorkloadDesc& desc, unsigned cores,
                                 std::uint64_t seed)
    : desc_(desc), seed_(seed) {
  gens_.reserve(cores);
  for (unsigned c = 0; c < cores; ++c) {
    gens_.emplace_back(desc, c, cores, seed);
  }
}

std::string SyntheticSource::describe() const {
  return "synthetic " + desc_.name + " seed=" + std::to_string(seed_);
}

void SyntheticSource::next_rounds(MemOp* out, std::size_t rounds) {
  const std::size_t n = gens_.size();
  for (std::size_t c = 0; c < n; ++c) {
    // The copy's state stays in registers across the column.
    CoreGenerator gen = gens_[c];
    for (std::size_t r = 0; r < rounds; ++r) {
      out[r * n + c] = gen.next_untimed();
    }
    gens_[c] = gen;
  }
}

}  // namespace eccsim::trace
