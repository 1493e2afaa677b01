#include "trace/workload.hpp"

#include <cmath>
#include <stdexcept>

namespace eccsim::trace {

namespace {

WorkloadDesc make(const std::string& name, int bin, bool mt, double apki,
                  double wr, double fp_mb, double stream, double hot_frac,
                  double hot_prob) {
  WorkloadDesc d;
  d.name = name;
  d.bin = bin;
  d.multithreaded = mt;
  d.apki = apki;
  d.write_fraction = wr;
  d.footprint_bytes = static_cast<std::uint64_t>(fp_mb * 1024 * 1024);
  d.stream_fraction = stream;
  d.hot_fraction = hot_frac;
  d.hot_access_prob = hot_prob;
  return d;
}

}  // namespace

const std::vector<WorkloadDesc>& paper_workloads() {
  // Bin assignment follows Fig. 9's split: eight high-bandwidth (Bin2) and
  // eight low-bandwidth (Bin1) workloads.  Parameters are calibrated
  // caricatures of the published memory behavior of each benchmark:
  // streaming solvers (lbm, libquantum, leslie3d, GemsFDTD, milc) are
  // sequential and write-heavy; mcf and canneal are pointer-chasing with
  // large footprints; sjeng/gcc/bzip2/hmmer are cache-resident.
  static const std::vector<WorkloadDesc> kWorkloads = {
      // --- Bin2: high memory access rate --------------------------------
      make("mcf",           2, false, 45.0, 0.28, 420, 0.10, 0.05, 0.35),
      make("lbm",           2, false, 32.0, 0.45, 380, 0.95, 0.02, 0.10),
      make("libquantum",    2, false, 28.0, 0.25, 256, 0.98, 0.01, 0.05),
      make("milc",          2, false, 26.0, 0.38, 340, 0.85, 0.05, 0.15),
      make("leslie3d",      2, false, 24.0, 0.40, 300, 0.90, 0.04, 0.12),
      make("GemsFDTD",      2, false, 27.0, 0.42, 360, 0.88, 0.04, 0.12),
      make("canneal",       2, true,  30.0, 0.15, 512, 0.05, 0.08, 0.30),
      make("streamcluster", 2, true,  25.0, 0.12, 200, 0.92, 0.03, 0.20),
      // --- Bin1: low memory access rate ---------------------------------
      // Bin1 codes are cache-friendly: most of their L2 traffic hits a
      // small hot set that fits in the 8MB LLC, so the memory system sees
      // only the cold tail (Fig. 9 shows them far below the Bin2 group).
      make("omnetpp",       1, false, 12.0, 0.35, 160, 0.08, 0.003, 0.88),
      make("sjeng",         1, false,  4.0, 0.30,  90, 0.04, 0.006, 0.92),
      make("gcc",           1, false,  6.0, 0.33, 110, 0.08, 0.004, 0.88),
      make("bzip2",         1, false,  7.0, 0.32, 120, 0.12, 0.004, 0.85),
      make("hmmer",         1, false,  3.5, 0.28,  48, 0.08, 0.010, 0.93),
      make("soplex",        1, false, 10.0, 0.24, 180, 0.15, 0.0025, 0.82),
      make("facesim",       1, true,   8.0, 0.34, 140, 0.20, 0.020, 0.85),
      make("ferret",        1, true,   6.5, 0.26, 100, 0.12, 0.015, 0.86),
  };
  return kWorkloads;
}

const WorkloadDesc& workload_by_name(const std::string& name) {
  return paper_workloads()[workload_index(name)];
}

std::size_t workload_index(const std::string& name) {
  const auto& all = paper_workloads();
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].name == name) return i;
  }
  throw std::out_of_range("unknown workload: " + name);
}

std::uint64_t paper_sweep_seed(std::size_t index) {
  // Mirrors runner::substream_seed(1, index); duplicated here so the
  // trace layer does not depend on the runner (tests pin the equality).
  constexpr std::uint64_t kPaperRootSeed = 1;
  SplitMix64 sm(kPaperRootSeed ^ (0x9e3779b97f4a7c15ULL * (index + 1)));
  return sm.next();
}

std::uint64_t paper_sweep_seed(const std::string& name) {
  return paper_sweep_seed(workload_index(name));
}

CoreGenerator::CoreGenerator(const WorkloadDesc& desc, unsigned core,
                             unsigned cores, std::uint64_t seed)
    : desc_(desc) {
  SplitMix64 sm(seed ^ (0xc2b2ae3d27d4eb4fULL * (core + 1)));
  rng_ = Rng(sm.next());
  const std::uint64_t total_lines = desc.footprint_bytes / 64;
  if (desc.multithreaded) {
    // PARSEC-style: all threads share the footprint.
    region_base_ = 0;
    region_lines_ = total_lines;
    // Stagger thread starting points through the shared region.
    stream_pos_ = total_lines * core / std::max(1u, cores);
  } else {
    // Multiprogrammed: eight instances of the same benchmark, each with a
    // private copy of the footprint (Sec. IV-B).
    region_lines_ = total_lines;
    region_base_ = static_cast<std::uint64_t>(core) * total_lines;
  }
  if (region_lines_ == 0) region_lines_ = 1;
  gap_mean_ = 1000.0 / desc.apki;
}

std::uint64_t CoreGenerator::random_line() {
  // Hot-set reuse: a fraction of the footprint receives most of the random
  // traffic, which is what gives the LLC something to hold on to.
  const std::uint64_t hot_lines = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             static_cast<double>(region_lines_) * desc_.hot_fraction));
  if (rng_.next_double() < desc_.hot_access_prob) {
    return region_base_ + rng_.next_below(hot_lines);
  }
  return region_base_ + rng_.next_below(region_lines_);
}

MemOp CoreGenerator::next() {
  // Geometric gap with the workload's mean: memoryless instruction counts
  // between accesses.
  const double u = rng_.next_double();
  MemOp op = next_access();
  op.gap = static_cast<std::uint32_t>(-gap_mean_ * std::log(1.0 - u));
  return op;
}

MemOp CoreGenerator::next_untimed() {
  (void)rng_.next_double();  // the gap's draw, so the stream stays in step
  return next_access();
}

MemOp CoreGenerator::next_access() {
  MemOp op;
  if (pending_sibling_ >= 0) {
    op.line = static_cast<std::uint64_t>(pending_sibling_);
    pending_sibling_ = -1;
  } else if (rng_.next_double() < desc_.stream_fraction) {
    op.line = region_base_ + stream_pos_;
    stream_pos_ = (stream_pos_ + 1) % region_lines_;
  } else {
    op.line = random_line();
    if (rng_.next_double() < desc_.sibling_locality) {
      pending_sibling_ = static_cast<std::int64_t>(op.line ^ 1);
    }
  }
  op.is_write = rng_.next_double() < desc_.write_fraction;
  return op;
}

}  // namespace eccsim::trace
