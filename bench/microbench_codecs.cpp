// google-benchmark microbenchmarks: throughput of the hot computational
// kernels -- Reed-Solomon encode/decode, the per-scheme line codecs, the
// ECC Parity manager's read/write paths, the address map's decode, the
// DRAM channel scheduler, a Bin2-like request stream through a whole
// memory system, the LLC under the warm-up's access stream, and the
// measured phase of a sweep cell.  These are engineering benchmarks for
// the library itself (regression tracking), not paper figures.  Besides
// the console table, results land in results/microbench_codecs.json
// (results/smoke/ under --smoke) beside the run manifest.
#include <benchmark/benchmark.h>

#include <vector>

#include "cache/cache.hpp"
#include "common/rng.hpp"
#include "dram/address_map.hpp"
#include "dram/channel.hpp"
#include "dram/memory_system.hpp"
#include "ecc/codec.hpp"
#include "ecc/scheme.hpp"
#include "eccparity/manager.hpp"
#include "gf/kernels.hpp"
#include "gf/rs.hpp"
#include "microbench_main.hpp"
#include "sim/system.hpp"
#include "trace/source.hpp"

using namespace eccsim;

namespace {

/// Pins one GF kernel for the duration of a measurement loop and restores
/// the previous dispatch on destruction, so the per-kernel benchmarks
/// below compare implementations instead of whatever ECCSIM_KERNEL chose.
class ScopedKernel {
 public:
  explicit ScopedKernel(gf::Kernel k) : prev_(gf::set_kernel_override(k)) {}
  ~ScopedKernel() { gf::set_kernel_override(prev_); }
  ScopedKernel(const ScopedKernel&) = delete;
  ScopedKernel& operator=(const ScopedKernel&) = delete;

 private:
  gf::Kernel prev_;
};

bool skip_unless_available(benchmark::State& state, gf::Kernel k) {
  if (gf::kernel_available(k)) return false;
  state.SkipWithError("kernel unavailable on this CPU");
  return true;
}

// RS(36,32) encode with the kernel pinned per run: the headline number
// behind the slice8/simd speedup claims in docs/KERNELS.md, and the series
// benchtool's perf history tracks per kernel.
void BM_Rs8EncodeKernel(benchmark::State& state) {
  const auto kern = static_cast<gf::Kernel>(state.range(0));
  if (skip_unless_available(state, kern)) return;
  ScopedKernel pin(kern);
  gf::Rs8 rs(36, 32);
  Rng rng(1);
  std::vector<std::uint8_t> data(32);
  for (auto& d : data) d = static_cast<std::uint8_t>(rng.next_below(256));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rs.encode(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 32);
  state.SetLabel(gf::kernel_name(kern));
}
BENCHMARK(BM_Rs8EncodeKernel)
    ->Arg(static_cast<int>(gf::Kernel::kScalar))
    ->Arg(static_cast<int>(gf::Kernel::kSlice8))
    ->Arg(static_cast<int>(gf::Kernel::kSimd));

// Syndrome computation (the decode hot path for clean reads) per kernel.
void BM_Rs8CheckKernel(benchmark::State& state) {
  const auto kern = static_cast<gf::Kernel>(state.range(0));
  if (skip_unless_available(state, kern)) return;
  ScopedKernel pin(kern);
  gf::Rs8 rs(36, 32);
  Rng rng(6);
  std::vector<std::uint8_t> data(32);
  for (auto& d : data) d = static_cast<std::uint8_t>(rng.next_below(256));
  const auto cw = rs.encode(data);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rs.check(cw));
  }
  state.SetLabel(gf::kernel_name(kern));
}
BENCHMARK(BM_Rs8CheckKernel)
    ->Arg(static_cast<int>(gf::Kernel::kScalar))
    ->Arg(static_cast<int>(gf::Kernel::kSlice8))
    ->Arg(static_cast<int>(gf::Kernel::kSimd));

// The raw region primitive at DRAM-line size, isolating kernel throughput
// from RS bookkeeping.
void BM_GfMulRegionAccKernel(benchmark::State& state) {
  const auto kern = static_cast<gf::Kernel>(state.range(0));
  if (skip_unless_available(state, kern)) return;
  ScopedKernel pin(kern);
  Rng rng(7);
  std::vector<std::uint8_t> src(4096), dst(4096, 0);
  for (auto& b : src) b = static_cast<std::uint8_t>(rng.next_below(256));
  std::uint8_t c = 2;
  for (auto _ : state) {
    gf::gf_mul_region_acc(c, src.data(), dst.data(), src.size());
    benchmark::DoNotOptimize(dst.data());
    c = static_cast<std::uint8_t>(c + 1);
    if (c == 0) c = 2;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(src.size()));
  state.SetLabel(gf::kernel_name(kern));
}
BENCHMARK(BM_GfMulRegionAccKernel)
    ->Arg(static_cast<int>(gf::Kernel::kScalar))
    ->Arg(static_cast<int>(gf::Kernel::kSlice8))
    ->Arg(static_cast<int>(gf::Kernel::kSimd));

void BM_Rs8Encode(benchmark::State& state) {
  gf::Rs8 rs(36, 32);
  Rng rng(1);
  std::vector<std::uint8_t> data(32);
  for (auto& d : data) d = static_cast<std::uint8_t>(rng.next_below(256));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rs.encode(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 32);
}
BENCHMARK(BM_Rs8Encode);

void BM_Rs8DecodeOneError(benchmark::State& state) {
  gf::Rs8 rs(36, 32);
  Rng rng(2);
  std::vector<std::uint8_t> data(32);
  for (auto& d : data) d = static_cast<std::uint8_t>(rng.next_below(256));
  const auto clean = rs.encode(data);
  for (auto _ : state) {
    auto cw = clean;
    cw[7] ^= 0x5A;
    const auto res = rs.decode(cw);
    benchmark::DoNotOptimize(res.ok);
  }
}
BENCHMARK(BM_Rs8DecodeOneError);

void BM_CodecEncodeLine(benchmark::State& state) {
  const auto id = static_cast<ecc::SchemeId>(state.range(0));
  const auto codec = ecc::make_codec(id);
  Rng rng(3);
  std::vector<std::uint8_t> line(codec->data_bytes());
  for (auto& b : line) b = static_cast<std::uint8_t>(rng.next_below(256));
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec->detection_bits(line));
    benchmark::DoNotOptimize(codec->correction_bits(line));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          codec->data_bytes());
  state.SetLabel(ecc::to_string(id));
}
BENCHMARK(BM_CodecEncodeLine)
    ->Arg(static_cast<int>(ecc::SchemeId::kChipkill36))
    ->Arg(static_cast<int>(ecc::SchemeId::kChipkill18))
    ->Arg(static_cast<int>(ecc::SchemeId::kLotEcc5))
    ->Arg(static_cast<int>(ecc::SchemeId::kRaim));

void BM_ParityManagerWrite(benchmark::State& state) {
  dram::MemGeometry geom;
  geom.channels = 8;
  geom.ranks_per_channel = 2;
  geom.rows_per_bank = 256;
  geom.line_bytes = 64;
  eccparity::EccParityManager mgr(geom,
                                  ecc::make_codec(ecc::SchemeId::kLotEcc5));
  Rng rng(4);
  std::vector<std::uint8_t> line(64);
  std::uint64_t addr = 0;
  for (auto _ : state) {
    for (auto& b : line) b = static_cast<std::uint8_t>(rng.next());
    mgr.write_line(addr % 100000, line);
    ++addr;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_ParityManagerWrite);

void BM_ParityReconstruction(benchmark::State& state) {
  dram::MemGeometry geom;
  geom.channels = 8;
  geom.ranks_per_channel = 2;
  geom.rows_per_bank = 256;
  geom.line_bytes = 64;
  eccparity::EccParityManager mgr(
      geom, ecc::make_codec(ecc::SchemeId::kLotEcc5), 1u << 30);
  Rng rng(5);
  std::vector<std::uint8_t> line(64);
  for (std::uint64_t l = 0; l < 64; ++l) {
    for (auto& b : line) b = static_cast<std::uint8_t>(rng.next());
    mgr.write_line(l, line);
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    const std::uint64_t victim = i++ % 64;
    mgr.corrupt_chip_share(victim, 0);
    auto r = mgr.read_line(victim);  // reconstruct + correct + write back
    benchmark::DoNotOptimize(r.corrected);
  }
}
BENCHMARK(BM_ParityReconstruction);

// One channel under a backlog: 256 requests over both ranks and all
// banks, fed into the 64-deep queue as it drains.  Items are completed
// requests; a run that completes fewer than 256 fails.
void BM_DramChannelThroughput(benchmark::State& state) {
  constexpr unsigned kRequests = 256;
  dram::ChannelConfig cfg;
  cfg.device = dram::micron_2gb(dram::DeviceWidth::kX8);
  cfg.ranks = 2;
  cfg.chips_per_rank = 9;
  std::uint64_t completed = 0;
  std::vector<dram::MemCompletion> out;
  out.reserve(kRequests);
  for (auto _ : state) {
    state.PauseTiming();
    dram::Channel ch(cfg);
    out.clear();
    state.ResumeTiming();
    std::uint64_t now = 0;
    unsigned next = 0;
    while (next < kRequests || ch.pending() + ch.in_flight() > 0) {
      for (; next < kRequests; ++next) {
        dram::MemRequest req;
        req.id = next;
        req.addr = dram::DramAddress{0, next % 2, (next / 2) % 8, next, 0};
        req.enqueue_cycle = now;
        if (!ch.enqueue(req)) break;
      }
      ch.tick(++now, out);
    }
    if (out.size() != kRequests) {
      state.SkipWithError("channel lost requests");
      return;
    }
    completed += out.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(completed));
}
BENCHMARK(BM_DramChannelThroughput);

// AddressMap::decode, the per-request line -> (channel, rank, bank, row,
// col) split, walking each paper-quad DDR3 memory at a prime stride.
// RAIM+Parity's 10 channels take the reciprocal channel split; LOT-ECC5+
// Parity's 8 are a power of two.  Items are decoded lines.
void BM_AddressMapDecode(benchmark::State& state, ecc::SchemeId id) {
  const dram::AddressMap map(
      ecc::make_scheme(id, ecc::SystemScale::kQuadEquivalent)
          .mem_config()
          .geometry());
  const std::uint64_t total = map.geometry().total_data_lines();
  std::uint64_t line = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.decode(line));
    line += 104'729;
    if (line >= total) line -= total;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK_CAPTURE(BM_AddressMapDecode, raim_parity,
                  ecc::SchemeId::kRaimParity);
BENCHMARK_CAPTURE(BM_AddressMapDecode, lotecc5_parity,
                  ecc::SchemeId::kLotEcc5Parity);

// The DRAM layer of a Bin2 sweep cell: a seeded stream of data-line
// requests, arriving in bursts of 1-4 on a quarter of the cycles, through
// the paper-quad RAIM+Parity DDR3 memory system.  A request a full
// channel queue rejects holds back the rest of the stream until the next
// cycle.  The stream is drawn before timing; items are completed requests,
// and a run that loses one fails.
void BM_MemorySystemStream(benchmark::State& state) {
  constexpr std::size_t kRequests = 100'000;
  const dram::MemSystemConfig cfg =
      ecc::make_scheme(ecc::SchemeId::kRaimParity,
                       ecc::SystemScale::kQuadEquivalent)
          .mem_config();
  struct Arrival {
    std::uint64_t cycle;
    dram::DramAddress addr;
    bool is_write;
  };
  std::vector<Arrival> stream;
  stream.reserve(kRequests);
  {
    const dram::MemorySystem probe(cfg);
    const std::uint64_t lines = probe.map().geometry().total_data_lines();
    Rng rng(0xb1a2);
    for (std::uint64_t cycle = 1; stream.size() < kRequests; ++cycle) {
      if (!rng.bernoulli(0.25)) continue;
      const std::uint64_t burst = 1 + rng.next_below(4);
      for (std::uint64_t k = 0; k < burst; ++k) {
        stream.push_back(Arrival{cycle,
                                 probe.map().decode(rng.next_below(lines)),
                                 rng.bernoulli(0.3)});
      }
    }
  }
  std::uint64_t completed = 0;
  for (auto _ : state) {
    state.PauseTiming();
    dram::MemorySystem mem(cfg);
    state.ResumeTiming();
    std::size_t next = 0;
    std::uint64_t done = 0;
    while (next < stream.size() || mem.outstanding() > 0) {
      for (; next < stream.size() && stream[next].cycle <= mem.cycle();
           ++next) {
        const Arrival& a = stream[next];
        if (!mem.enqueue_addr(a.addr, a.is_write, dram::LineClass::kData,
                              next)) {
          break;  // retried on the next cycle
        }
      }
      mem.tick();
      done += mem.completions().size();
      mem.completions().clear();
    }
    if (done != stream.size()) {
      state.SkipWithError("memory system lost requests");
      return;
    }
    completed += done;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(completed));
}
BENCHMARK(BM_MemorySystemStream);

// The LLC half of a warm-up op: a workload's warm-up stream (8 cores
// interleaved, its paper sweep seed, sim::warm_up_ops long), drawn with
// the warm-up's block call before timing, through a fresh paper LLC with
// each op's set block prefetched 8 ops ahead as the warm-up does.  Items
// are LLC accesses.
void BM_LlcWarmupStream(benchmark::State& state, const char* workload) {
  constexpr unsigned kCores = 8;
  constexpr std::size_t kAhead = 8;
  const cache::CacheConfig cfg;  // Table I
  trace::SyntheticSource source(trace::workload_by_name(workload), kCores,
                                trace::paper_sweep_seed(workload));
  std::vector<trace::MemOp> stream(sim::warm_up_ops(kCores));
  source.next_rounds(stream.data(), stream.size() / kCores);
  for (auto _ : state) {
    state.PauseTiming();
    cache::Cache llc(cfg);
    state.ResumeTiming();
    for (std::size_t k = 0; k < stream.size(); ++k) {
      if (k + kAhead < stream.size()) llc.prefetch(stream[k + kAhead].line);
      benchmark::DoNotOptimize(
          llc.access(stream[k].line, stream[k].is_write));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(stream.size()));
  state.SetLabel(workload);
}
BENCHMARK_CAPTURE(BM_LlcWarmupStream, omnetpp, "omnetpp");
BENCHMARK_CAPTURE(BM_LlcWarmupStream, mcf, "mcf");

// A whole LLC warm-up, as a sweep runs one per warm-up class: sim::warm
// of a workload (8 cores, its paper sweep seed) on the paper-quad
// LOT-ECC5+Parity system -- the generator's block draws, the LLC and the
// maintenance rule's eviction chain.  Items are warm-up ops.
void BM_WarmUp(benchmark::State& state, const char* workload) {
  const ecc::SchemeDesc scheme = ecc::make_scheme(
      ecc::SchemeId::kLotEcc5Parity, ecc::SystemScale::kQuadEquivalent);
  const trace::WorkloadDesc& desc = trace::workload_by_name(workload);
  const sim::CpuConfig cpu;
  sim::SimOptions opts;
  opts.seed = trace::paper_sweep_seed(workload);
  for (auto _ : state) {
    const sim::WarmState warm = sim::warm(scheme, desc, cpu, opts);
    benchmark::DoNotOptimize(warm.llc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(
                              sim::warm_up_ops(cpu.cores)));
  state.SetLabel(workload);
}
BENCHMARK_CAPTURE(BM_WarmUp, omnetpp, "omnetpp")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_WarmUp, mcf, "mcf")->Unit(benchmark::kMillisecond);

// The CPU and DRAM layers of a sweep cell: the measured phase of a
// workload on the paper-quad LOT-ECC5+Parity system at its paper sweep
// seed, started from a WarmState built once before timing.  Each
// iteration times the SystemSim's construction (which copies the warm LLC)
// and run(): 1M instructions, as in a sweep cell, plus the drain.  Items
// are memory cycles.
void BM_SystemSimMeasured(benchmark::State& state, const char* workload) {
  const ecc::SchemeDesc scheme = ecc::make_scheme(
      ecc::SchemeId::kLotEcc5Parity, ecc::SystemScale::kQuadEquivalent);
  const trace::WorkloadDesc& desc = trace::workload_by_name(workload);
  const sim::CpuConfig cpu;
  sim::SimOptions opts;
  opts.target_instructions = 1'000'000;
  opts.seed = trace::paper_sweep_seed(workload);
  const sim::WarmState warm = sim::warm(scheme, desc, cpu, opts);
  std::uint64_t mem_cycles = 0;
  for (auto _ : state) {
    sim::SystemSim cell(scheme, desc, cpu, opts, &warm);
    const sim::RunResult result = cell.run();
    benchmark::DoNotOptimize(result);
    mem_cycles += result.mem_cycles;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(mem_cycles));
  state.SetLabel(workload);
}
BENCHMARK_CAPTURE(BM_SystemSimMeasured, omnetpp, "omnetpp")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SystemSimMeasured, mcf, "mcf")
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return bench::microbench_main("microbench_codecs", "items_per_second", argc,
                                argv);
}
