// End-to-end record/replay bit-identity: a trace recorded with a
// workload's canonical sweep seed, fed back through SystemSim via
// SimOptions::trace_in, must reproduce every per-cell metric of the live
// synthetic run exactly -- the property the fig10 replay CI job leans on.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "sim/system.hpp"
#include "trace/workload.hpp"
#include "tracefile/reader.hpp"
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

/// 64-bit FNV-1a of the bytes of the file at `path`.
std::uint64_t file_fnv1a(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::istreambuf_iterator<char> it(in), end; it != end; ++it) {
    h ^= static_cast<unsigned char>(*it);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// A pre-LLC recording made through SystemSim holds the ops in the order
// the cores drew them, and a post-LLC capture the requests in the order
// they were sent, so both pin the cross-core call order of the measured
// phase, not only its totals.  Digests of the file bytes, recorded from
// the simulator that visited every core on every CPU cycle, for 8 cores
// of a stalling Bin2 workload.
TEST(TraceReplaySim, RecordingsPinCrossCoreCallOrder) {
  struct Case {
    const char* label;
    tracefile::CapturePoint point;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {"pre-LLC", tracefile::CapturePoint::kPreLlc, 0x43776c5e63572f6dULL},
      {"post-LLC", tracefile::CapturePoint::kPostLlc, 0x7334201132a31fa8ULL},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.label);
    const std::string path = temp_path("call_order.ecctrace");
    SimOptions opts = base_opts(trace::paper_sweep_seed("mcf"));
    opts.target_instructions = 400'000;
    opts.trace_out = path;
    opts.trace_point = c.point;
    run_experiment(ecc::SchemeId::kLotEcc5Parity,
                   ecc::SystemScale::kQuadEquivalent, "mcf", opts);
    EXPECT_EQ(file_fnv1a(path), c.digest)
        << std::hex << "0x" << file_fnv1a(path);
    std::remove(path.c_str());
  }
}

// The warm-up pulls replayed ops a block of whole rounds at a time.  A
// trace recorded through SystemSim holds its measured-phase ops in the
// order the cores drew them, not round-robin, so its chunks give the cores
// uneven counts.  Blocks of any size, across chunk boundaries, must return
// exactly what round-robin next() calls return, keep ops_replayed() exact,
// and throw the same TraceError text when the trace runs out.
TEST(TraceReplaySim, BlockPullsMatchPerOpPullsOnASimRecording) {
  const std::string path = temp_path("block_pulls.ecctrace");
  SimOptions opts = base_opts(trace::paper_sweep_seed("mcf"));
  opts.target_instructions = 400'000;
  opts.trace_out = path;
  run_experiment(ecc::SchemeId::kLotEcc5Parity,
                 ecc::SystemScale::kQuadEquivalent, "mcf", opts);
  {
    // The premise: past the warm-up, several chunks are not round-robin.
    tracefile::TraceReader reader(path);
    const std::uint64_t cores = reader.meta().cores;
    std::uint64_t k = 0, off_pattern = 0;
    tracefile::PreOp rec;
    while (reader.next(rec)) {
      if (k >= warm_up_ops(8) && rec.core != k % cores) ++off_pattern;
      ++k;
    }
    ASSERT_GT(off_pattern, 10'000u);
    ASSERT_GT(reader.chunk_count(),
              warm_up_ops(8) / tracefile::kDefaultOpsPerChunk + 4);
  }
  tracefile::ReplaySource blocks(path), per_op(path);
  const unsigned cores = per_op.cores();
  constexpr std::size_t kRounds[] = {1, 64, 7, 513, 3000, 64};
  std::vector<trace::MemOp> want, got;
  std::string per_op_error;
  for (std::size_t b = 0; per_op_error.empty(); ++b) {
    const std::size_t rounds = kRounds[b % std::size(kRounds)];
    want.clear();
    try {
      for (std::size_t r = 0; r < rounds; ++r) {
        for (unsigned c = 0; c < cores; ++c) want.push_back(per_op.next(c));
      }
    } catch (const tracefile::TraceError& e) {
      per_op_error = e.what();
    }
    got.assign(rounds * cores, trace::MemOp{});
    if (!per_op_error.empty()) {
      try {
        blocks.next_rounds(got.data(), rounds);
        FAIL() << "block " << b << " ran past the end of the trace";
      } catch (const tracefile::TraceError& e) {
        EXPECT_EQ(e.what(), per_op_error);
      }
    } else {
      blocks.next_rounds(got.data(), rounds);
      for (std::size_t k = 0; k < got.size(); ++k) {
        ASSERT_EQ(got[k].line, want[k].line) << "block " << b << " op " << k;
        ASSERT_EQ(got[k].is_write, want[k].is_write) << "block " << b;
        ASSERT_EQ(got[k].gap, want[k].gap) << "block " << b << " op " << k;
      }
    }
    ASSERT_EQ(blocks.ops_replayed(), per_op.ops_replayed()) << "block " << b;
  }
  EXPECT_NE(per_op_error.find("trace exhausted"), std::string::npos)
      << per_op_error;
  EXPECT_GT(per_op.ops_replayed(), warm_up_ops(8));
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
// after the warm-up (warm_up_ops) is the measured phase's first: a demand
// read of the line beyond the memory.
TEST(TraceReplaySim, LineBeyondMemoryIsFatal) {
  const std::string path = temp_path("beyond_memory.ecctrace");
  const ecc::SchemeDesc scheme = ecc::make_scheme(
      ecc::SchemeId::kChipkill36, ecc::SystemScale::kQuadEquivalent);
  const std::uint64_t memlines =
      scheme.mem_config().geometry().total_data_lines();
  const std::uint64_t beyond = memlines * (scheme.line_bytes / 64);
  const std::uint64_t warm_ops = warm_up_ops(1);
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

// The warm-up checks each op's memory line as the measured phase does: a
// replayed warm-up read beyond the memory fails the run instead of warming
// the LLC with a line that would alias another.  No measured phase, so
// only the warm-up can refuse the trace's first two ops.
TEST(TraceReplaySim, WarmUpLineBeyondMemoryIsFatal) {
  const std::string path = temp_path("warmup_beyond_memory.ecctrace");
  const ecc::SchemeDesc scheme = ecc::make_scheme(
      ecc::SchemeId::kChipkill36, ecc::SystemScale::kQuadEquivalent);
  const std::uint64_t memlines =
      scheme.mem_config().geometry().total_data_lines();
  const std::uint64_t beyond = memlines * (scheme.line_bytes / 64);
  tracefile::TraceMeta meta;
  meta.cores = 1;
  meta.workload = "mcf";
  {
    tracefile::TraceWriter writer(path, meta);
    writer.append(trace::MemOp{beyond, false, 0}, 0);
    writer.append(trace::MemOp{beyond + 64, false, 0}, 0);
    for (std::uint64_t i = 2; i < warm_up_ops(1); ++i) {
      writer.append(trace::MemOp{i % 64, false, 0}, 0);
    }
    writer.close();
  }
  CpuConfig cpu;
  cpu.cores = 1;
  SimOptions opts = base_opts(1);
  opts.target_instructions = 0;
  opts.trace_in = path;
  SystemSim sim(scheme, trace::workload_by_name("mcf"), cpu, opts);
  try {
    sim.run();
    FAIL() << "a warm-up line beyond the memory was replayed";
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
