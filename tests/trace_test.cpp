// Tests for the synthetic workload generators and the TraceSource
// contract (next_untimed included, for every source kind).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>

#include "trace/source.hpp"
#include "trace/workload.hpp"
#include "tracefile/replay.hpp"

namespace eccsim::trace {
namespace {

TEST(Workloads, SixteenPaperWorkloads) {
  const auto& all = paper_workloads();
  EXPECT_EQ(all.size(), 16u);
  unsigned bin1 = 0, bin2 = 0, mt = 0;
  std::set<std::string> names;
  for (const auto& w : all) {
    EXPECT_TRUE(names.insert(w.name).second) << "duplicate " << w.name;
    if (w.bin == 1) ++bin1;
    if (w.bin == 2) ++bin2;
    if (w.multithreaded) ++mt;
  }
  EXPECT_EQ(bin1, 8u);
  EXPECT_EQ(bin2, 8u);
  EXPECT_EQ(mt, 4u);  // the four PARSEC workloads
}

TEST(Workloads, LookupByName) {
  EXPECT_EQ(workload_by_name("lbm").bin, 2);
  EXPECT_EQ(workload_by_name("sjeng").bin, 1);
  EXPECT_THROW(workload_by_name("doom"), std::out_of_range);
}

TEST(Workloads, Bin2HasHigherAccessRates) {
  // Fig. 9: Bin2 workloads consume more bandwidth.  Every Bin2 APKI must
  // exceed every Bin1 APKI in our calibration.
  double min_bin2 = 1e9, max_bin1 = 0;
  for (const auto& w : paper_workloads()) {
    if (w.bin == 2) min_bin2 = std::min(min_bin2, w.apki);
    else max_bin1 = std::max(max_bin1, w.apki);
  }
  EXPECT_GT(min_bin2, max_bin1);
}

TEST(CoreGenerator, GapMatchesApki) {
  const auto& w = workload_by_name("lbm");
  CoreGenerator gen(w, 0, 8, 42);
  double gap_sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) gap_sum += gen.next().gap;
  const double mean_gap = gap_sum / n;
  // mean gap ~ 1000/APKI (the +1 memory instruction is noise at this size).
  EXPECT_NEAR(mean_gap, 1000.0 / w.apki, 1000.0 / w.apki * 0.1);
}

TEST(CoreGenerator, WriteFractionMatches) {
  const auto& w = workload_by_name("milc");
  CoreGenerator gen(w, 0, 8, 42);
  int writes = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) writes += gen.next().is_write;
  EXPECT_NEAR(static_cast<double>(writes) / n, w.write_fraction, 0.02);
}

TEST(CoreGenerator, FootprintRespected) {
  const auto& w = workload_by_name("hmmer");
  const std::uint64_t lines = w.footprint_bytes / 64;
  CoreGenerator gen(w, 2, 8, 42);  // core 2: private region [2*lines, 3*lines)
  for (int i = 0; i < 20000; ++i) {
    const MemOp op = gen.next();
    EXPECT_GE(op.line, 2 * lines);
    EXPECT_LT(op.line, 3 * lines);
  }
}

TEST(CoreGenerator, MultithreadedSharesFootprint) {
  const auto& w = workload_by_name("canneal");
  ASSERT_TRUE(w.multithreaded);
  const std::uint64_t lines = w.footprint_bytes / 64;
  for (unsigned core : {0u, 3u, 7u}) {
    CoreGenerator gen(w, core, 8, 42);
    for (int i = 0; i < 2000; ++i) {
      EXPECT_LT(gen.next().line, lines);
    }
  }
}

TEST(CoreGenerator, StreamingWorkloadIsSequential) {
  const auto& w = workload_by_name("libquantum");  // stream_fraction 0.98
  CoreGenerator gen(w, 0, 8, 42);
  std::uint64_t sequential = 0, total = 0;
  std::uint64_t prev = gen.next().line;
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t cur = gen.next().line;
    if (cur == prev + 1) ++sequential;
    prev = cur;
    ++total;
  }
  EXPECT_GT(static_cast<double>(sequential) / total, 0.9);
}

TEST(CoreGenerator, DeterministicPerSeed) {
  const auto& w = workload_by_name("mcf");
  CoreGenerator a(w, 1, 8, 7), b(w, 1, 8, 7), c(w, 1, 8, 8);
  bool any_diff = false;
  for (int i = 0; i < 1000; ++i) {
    const MemOp oa = a.next(), ob = b.next(), oc = c.next();
    EXPECT_EQ(oa.line, ob.line);
    EXPECT_EQ(oa.is_write, ob.is_write);
    EXPECT_EQ(oa.gap, ob.gap);
    if (oa.line != oc.line) any_diff = true;
  }
  EXPECT_TRUE(any_diff) << "different seeds must differ";
}

TEST(CoreGenerator, CoresHaveDistinctStreams) {
  const auto& w = workload_by_name("canneal");
  CoreGenerator a(w, 0, 8, 7), b(w, 1, 8, 7);
  bool any_diff = false;
  for (int i = 0; i < 200; ++i) {
    if (a.next().line != b.next().line) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Workloads, IndexIsPositionInPaperList) {
  const auto& all = paper_workloads();
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(workload_index(all[i].name), i);
  }
  EXPECT_THROW(workload_index("doom"), std::out_of_range);
}

TEST(Workloads, PaperSweepSeedsAreStableAndDistinct) {
  // These seeds are baked into recorded traces (tracetool's default) and
  // into the committed sweep CSVs; pin workload 0's value so an accidental
  // change to the derivation cannot slip through.
  EXPECT_EQ(paper_sweep_seed(0), paper_sweep_seed("mcf"));
  EXPECT_EQ(paper_sweep_seed(0), 16834447057089888969ULL);
  std::set<std::uint64_t> seen;
  for (std::size_t i = 0; i < paper_workloads().size(); ++i) {
    EXPECT_TRUE(seen.insert(paper_sweep_seed(i)).second);
  }
}

TEST(SyntheticSource, MatchesPerCoreGenerators) {
  const auto& w = workload_by_name("GemsFDTD");
  SyntheticSource source(w, 4, 123);
  EXPECT_EQ(source.cores(), 4u);
  EXPECT_EQ(source.workload().name, "GemsFDTD");
  std::vector<CoreGenerator> gens;
  for (unsigned c = 0; c < 4; ++c) gens.emplace_back(w, c, 4, 123);
  // Uneven pull order: the source must keep per-core streams independent.
  for (int i = 0; i < 4000; ++i) {
    const unsigned c = static_cast<unsigned>((i * 7) % 4);
    const MemOp a = source.next(c);
    const MemOp b = gens[c].next();
    ASSERT_EQ(a.line, b.line);
    ASSERT_EQ(a.gap, b.gap);
    ASSERT_EQ(a.is_write, b.is_write);
  }
}

// The LLC warm-up draws with next_untimed(): it must return next()'s line
// and is_write with gap 0, and leave every core's stream exactly where
// next() would, so the ops after it are unchanged.  Runs of untimed and
// timed draws alternate with varying lengths, then an all-timed tail.
TEST(SyntheticSource, UntimedDrawsKeepEveryStreamInStep) {
  constexpr unsigned kCores = 8;
  constexpr int kMixed = 10'000, kTail = 2'000;
  for (const auto& w : paper_workloads()) {
    const std::uint64_t seed = paper_sweep_seed(w.name);
    SyntheticSource mixed(w, kCores, seed), timed(w, kCores, seed);
    TraceSource& source = mixed;  // through the interface the sim uses
    for (unsigned c = 0; c < kCores; ++c) {
      const std::string where = w.name + " core " + std::to_string(c);
      for (int i = 0; i < kMixed + kTail; ++i) {
        const bool untimed = i < kMixed && (i / (1 + c % 5)) % 3 != 0;
        const MemOp want = timed.next(c);
        const MemOp got = untimed ? source.next_untimed(c) : source.next(c);
        ASSERT_EQ(got.line, want.line) << where << " op " << i;
        ASSERT_EQ(got.is_write, want.is_write) << where << " op " << i;
        ASSERT_EQ(got.gap, untimed ? 0u : want.gap) << where << " op " << i;
      }
    }
  }
}

// Recording must capture the full op and replay hands back what was
// recorded, so both keep next_untimed() == next(), gap included.
TEST(TraceSource, RecordingAndReplayUntimedReturnTheFullOp) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "trace_test_untimed.ecctrace")
          .string();
  const auto& desc = workload_by_name("lbm");
  constexpr int kOps = 600;
  bool saw_gap = false;
  {
    tracefile::RecordingSource rec(
        std::make_unique<SyntheticSource>(desc, 2, 11), path, 11);
    SyntheticSource reference(desc, 2, 11);
    for (int i = 0; i < kOps; ++i) {
      const unsigned c = static_cast<unsigned>(i % 2);
      const MemOp got = i % 3 == 0 ? rec.next_untimed(c) : rec.next(c);
      const MemOp want = reference.next(c);
      ASSERT_EQ(got.line, want.line) << "op " << i;
      ASSERT_EQ(got.is_write, want.is_write) << "op " << i;
      ASSERT_EQ(got.gap, want.gap) << "op " << i;
      if (i % 3 == 0 && got.gap != 0) saw_gap = true;
    }
    rec.writer().close();
  }
  EXPECT_TRUE(saw_gap) << "lbm's gaps must not all be zero";
  tracefile::ReplaySource replay(path);
  SyntheticSource reference(desc, 2, 11);
  for (int i = 0; i < kOps; ++i) {
    const unsigned c = static_cast<unsigned>(i % 2);
    const MemOp got = i % 2 == 0 ? replay.next_untimed(c) : replay.next(c);
    const MemOp want = reference.next(c);
    ASSERT_EQ(got.line, want.line) << "op " << i;
    ASSERT_EQ(got.is_write, want.is_write) << "op " << i;
    ASSERT_EQ(got.gap, want.gap) << "op " << i;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace eccsim::trace
