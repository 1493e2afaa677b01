// End-to-end record/replay bit-identity: a trace recorded with a
// workload's canonical sweep seed, fed back through SystemSim via
// SimOptions::trace_in, must reproduce every per-cell metric of the live
// synthetic run exactly -- the property the fig10 replay CI job leans on.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "sim/system.hpp"
#include "trace/workload.hpp"
#include "tracefile/replay.hpp"

namespace eccsim::sim {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

SimOptions base_opts(std::uint64_t seed) {
  SimOptions opts;
  opts.target_instructions = 50'000;  // smoke-sized measured phase
  opts.seed = seed;
  return opts;
}

void expect_identical(const RunResult& live, const RunResult& replay) {
  EXPECT_EQ(live.scheme, replay.scheme);
  EXPECT_EQ(live.workload, replay.workload);
  EXPECT_EQ(live.instructions, replay.instructions);
  EXPECT_EQ(live.mem_cycles, replay.mem_cycles);
  EXPECT_EQ(live.ipc, replay.ipc);
  EXPECT_EQ(live.epi_pj, replay.epi_pj);
  EXPECT_EQ(live.dynamic_epi_pj, replay.dynamic_epi_pj);
  EXPECT_EQ(live.background_epi_pj, replay.background_epi_pj);
  EXPECT_EQ(live.mapi, replay.mapi);
  EXPECT_EQ(live.bandwidth_utilization, replay.bandwidth_utilization);
  EXPECT_EQ(live.avg_read_latency, replay.avg_read_latency);
  EXPECT_EQ(live.mem.reads, replay.mem.reads);
  EXPECT_EQ(live.mem.writes, replay.mem.writes);
  EXPECT_EQ(live.mem.ecc_reads, replay.mem.ecc_reads);
  EXPECT_EQ(live.mem.ecc_writes, replay.mem.ecc_writes);
  EXPECT_EQ(live.llc.hits, replay.llc.hits);
  EXPECT_EQ(live.llc.misses, replay.llc.misses);
}

// Three workloads spanning the behavioral range (pointer-chasing Bin2,
// streaming Bin2, cache-resident Bin1) x two schemes (a 128B-line
// commercial baseline and the paper's proposal).  One shared trace per
// workload serves both schemes, exactly as the bench front-end resolves
// them.
TEST(TraceReplaySim, BitIdenticalToLiveGeneration) {
  // Warmup consumes 3 * (8MB/64B/8 cores) = 49152 ops/core before the
  // measured phase; 52k/core covers a 50k-instruction run with headroom.
  const std::uint64_t ops_per_core = 52'000;
  for (const std::string workload : {"mcf", "lbm", "sjeng"}) {
    const std::string path = temp_path("replay_sim_" + workload +
                                       ".ecctrace");
    const std::uint64_t seed = trace::paper_sweep_seed(workload);
    tracefile::record_workload_trace(trace::workload_by_name(workload), 8,
                                     ops_per_core, seed, path);
    for (const auto id :
         {ecc::SchemeId::kChipkill36, ecc::SchemeId::kLotEcc5Parity}) {
      SimOptions live_opts = base_opts(seed);
      const RunResult live = run_experiment(
          id, ecc::SystemScale::kQuadEquivalent, workload, live_opts);

      SimOptions replay_opts = base_opts(seed);
      replay_opts.trace_in = path;
      const RunResult replay = run_experiment(
          id, ecc::SystemScale::kQuadEquivalent, workload, replay_opts);
      expect_identical(live, replay);
    }
    std::remove(path.c_str());
  }
}

TEST(TraceReplaySim, RecordingRunIsUnperturbedAndReplayable) {
  const std::string path = temp_path("rerecord.ecctrace");
  const std::uint64_t seed = trace::paper_sweep_seed("hmmer");

  SimOptions plain = base_opts(seed);
  const RunResult baseline = run_experiment(
      ecc::SchemeId::kRaim, ecc::SystemScale::kDualEquivalent, "hmmer",
      plain);

  SimOptions recording = base_opts(seed);
  recording.trace_out = path;
  const RunResult recorded = run_experiment(
      ecc::SchemeId::kRaim, ecc::SystemScale::kDualEquivalent, "hmmer",
      recording);
  expect_identical(baseline, recorded);  // the tee must not perturb

  SimOptions replaying = base_opts(seed);
  replaying.trace_in = path;
  const RunResult replayed = run_experiment(
      ecc::SchemeId::kRaim, ecc::SystemScale::kDualEquivalent, "hmmer",
      replaying);
  expect_identical(baseline, replayed);
  std::remove(path.c_str());
}

TEST(TraceReplaySim, PostLlcCaptureMatchesMemoryTraffic) {
  const std::string path = temp_path("postcap.ecctrace");
  SimOptions opts = base_opts(7);
  opts.trace_out = path;
  opts.trace_point = tracefile::CapturePoint::kPostLlc;
  const RunResult r = run_experiment(
      ecc::SchemeId::kLotEcc5Parity, ecc::SystemScale::kQuadEquivalent,
      "libquantum", opts);

  // Every DRAM request the run issued must be in the file: reads + writes
  // (data and ECC alike) equals the recorded op count.
  tracefile::TraceReader reader(path);
  EXPECT_EQ(reader.meta().point, tracefile::CapturePoint::kPostLlc);
  EXPECT_EQ(reader.total_ops(), r.mem.reads + r.mem.writes);
  std::uint64_t prev_cycle = 0;
  std::uint64_t data = 0, ecc = 0;
  tracefile::PostOp rec;
  while (reader.next(rec)) {
    EXPECT_GE(rec.cycle, prev_cycle);  // issue order
    prev_cycle = rec.cycle;
    (rec.line_class == dram::LineClass::kData ? data : ecc) += 1;
  }
  EXPECT_GT(data, 0u);
  EXPECT_GT(ecc, 0u);  // the parity scheme must generate maintenance traffic
  std::remove(path.c_str());
}

TEST(TraceReplaySim, MismatchedTraceRejected) {
  const std::string path = temp_path("mismatchwl.ecctrace");
  tracefile::record_workload_trace(trace::workload_by_name("mcf"), 8, 100,
                                   1, path);
  SimOptions opts = base_opts(1);
  opts.trace_in = path;
  // Wrong workload for the trace: refused up front, not silently run.
  EXPECT_THROW(run_experiment(ecc::SchemeId::kChipkill36,
                              ecc::SystemScale::kQuadEquivalent, "lbm",
                              opts),
               tracefile::TraceError);
  // Wrong core count, same workload.
  tracefile::record_workload_trace(trace::workload_by_name("lbm"), 4, 100,
                                   1, path);
  EXPECT_THROW(run_experiment(ecc::SchemeId::kChipkill36,
                              ecc::SystemScale::kQuadEquivalent, "lbm",
                              opts),
               tracefile::TraceError);
  std::remove(path.c_str());
}

// A replayed op one line past the end of the memory would alias line 0
// if wrapped; the run must refuse it instead.  One core, so the op right
// after the 3-LLC-sizes warm-up is the measured phase's first: a demand
// read of the line beyond the memory.
TEST(TraceReplaySim, LineBeyondMemoryIsFatal) {
  const std::string path = temp_path("beyond_memory.ecctrace");
  const ecc::SchemeDesc scheme = ecc::make_scheme(
      ecc::SchemeId::kChipkill36, ecc::SystemScale::kQuadEquivalent);
  const std::uint64_t memlines =
      scheme.mem_config().geometry().total_data_lines();
  const std::uint64_t beyond = memlines * (scheme.line_bytes / 64);
  const cache::CacheConfig llc;
  const std::uint64_t warm_ops = 3 * llc.size_bytes / llc.line_bytes;
  tracefile::TraceMeta meta;
  meta.cores = 1;
  meta.workload = "mcf";
  {
    tracefile::TraceWriter writer(path, meta);
    for (std::uint64_t i = 0; i < warm_ops; ++i) {
      writer.append(trace::MemOp{i % 64, false, 0}, 0);
    }
    writer.append(trace::MemOp{beyond, false, 0}, 0);
    for (std::uint64_t i = 0; i < 64; ++i) {
      writer.append(trace::MemOp{i, false, 0}, 0);
    }
    writer.close();
  }
  CpuConfig cpu;
  cpu.cores = 1;
  SimOptions opts = base_opts(1);
  opts.trace_in = path;
  SystemSim sim(scheme, trace::workload_by_name("mcf"), cpu, opts);
  try {
    sim.run();
    FAIL() << "a line beyond the memory was replayed";
  } catch (const tracefile::TraceError& e) {
    FAIL() << "the trace ran out first: " << e.what();
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("memory line " + std::to_string(memlines)),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("beyond the memory"), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace eccsim::sim
