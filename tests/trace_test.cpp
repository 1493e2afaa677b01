// Tests for the synthetic workload generators and the TraceSource
// contract (next_rounds included, for every source kind).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <memory>
#include <set>
#include <vector>

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

// The LLC warm-up draws whole rounds with next_rounds(): round r's column
// c must be the line and is_write of what the r-th round-robin next(c)
// returns, with gap 0, and every core's stream must be left exactly where
// those next() calls leave it, so the ops after it are unchanged.  Blocks
// of varying round counts alternate with uneven runs of per-core next()
// calls (which put the cores at different stream positions), then an
// all-timed tail.
TEST(SyntheticSource, BlockDrawsKeepEveryStreamInStep) {
  constexpr unsigned kCores = 8;
  constexpr std::size_t kRounds[] = {1, 64, 3, 500, 17, 64, 2, 1000};
  constexpr int kTail = 2'000;
  for (const auto& w : paper_workloads()) {
    const std::uint64_t seed = paper_sweep_seed(w.name);
    SyntheticSource blocks(w, kCores, seed), timed(w, kCores, seed);
    TraceSource& source = blocks;  // through the interface the sim uses
    std::vector<MemOp> out;
    for (std::size_t b = 0; b < std::size(kRounds); ++b) {
      const std::size_t rounds = kRounds[b];
      out.assign(rounds * kCores, MemOp{1, true, 1});
      source.next_rounds(out.data(), rounds);
      for (std::size_t r = 0; r < rounds; ++r) {
        for (unsigned c = 0; c < kCores; ++c) {
          const MemOp want = timed.next(c);
          const MemOp& got = out[r * kCores + c];
          const std::string where = w.name + " block " + std::to_string(b) +
                                    " round " + std::to_string(r) +
                                    " core " + std::to_string(c);
          ASSERT_EQ(got.line, want.line) << where;
          ASSERT_EQ(got.is_write, want.is_write) << where;
          ASSERT_EQ(got.gap, 0u) << where;
        }
      }
      for (unsigned c = 0; c < kCores; ++c) {
        for (std::size_t i = 0; i < (b + c) % 4; ++i) {
          const MemOp want = timed.next(c);
          const MemOp got = source.next(c);
          ASSERT_EQ(got.line, want.line) << w.name << " core " << c;
          ASSERT_EQ(got.is_write, want.is_write) << w.name << " core " << c;
          ASSERT_EQ(got.gap, want.gap) << w.name << " core " << c;
        }
      }
    }
    for (int i = 0; i < kTail; ++i) {
      const unsigned c = static_cast<unsigned>(i) % kCores;
      const MemOp want = timed.next(c);
      const MemOp got = source.next(c);
      ASSERT_EQ(got.line, want.line) << w.name << " tail op " << i;
      ASSERT_EQ(got.is_write, want.is_write) << w.name << " tail op " << i;
      ASSERT_EQ(got.gap, want.gap) << w.name << " tail op " << i;
    }
  }
}

// The generator draws its Bernoulli outcomes against integer thresholds:
// (next() >> 11) < Rng::bernoulli_threshold(p) must decide exactly as
// next_double() < p does, for every 53-bit draw u.  Checked at each
// threshold's edges for every workload's four probabilities and the
// extreme and rounding-sensitive ones.
TEST(CoreGenerator, IntegerThresholdsAreExact) {
  constexpr std::uint64_t kTop = std::uint64_t{1} << 53;
  std::vector<double> ps = {0.0,
                            1.0,
                            0.5,
                            std::ldexp(1.0, -53),
                            1.0 - std::ldexp(1.0, -53),
                            std::nextafter(0.3, 0.0)};
  for (const auto& w : paper_workloads()) {
    ps.insert(ps.end(), {w.stream_fraction, w.hot_access_prob,
                         w.sibling_locality, w.write_fraction});
  }
  for (const double p : ps) {
    const std::uint64_t t = Rng::bernoulli_threshold(p);
    ASSERT_LE(t, kTop) << p;
    for (const std::uint64_t u :
         {std::uint64_t{0}, t - 1, t, t + 1, kTop - 1}) {
      if (u >= kTop) continue;  // t - 1 at t = 0, t + 1 at t = 2^53
      EXPECT_EQ(u < t, static_cast<double>(u) * 0x1.0p-53 < p)
          << "p = " << p << ", u = " << u << ", threshold " << t;
    }
  }
  // And through the generator's own calls: the same draws, same outcomes.
  for (const double p : ps) {
    Rng a(99), b(99);
    const std::uint64_t t = Rng::bernoulli_threshold(p);
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(a.bernoulli_below(t), b.bernoulli(p)) << p;
    }
  }
}

/// FNV-1a over each op's line (8 bytes), is_write (1 byte) and gap (4
/// bytes), little-endian, of `ops` ops per core drawn core after core.
template <typename Draw>
std::uint64_t stream_digest(unsigned cores, std::uint64_t ops, Draw draw) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&](std::uint64_t v, int bytes) {
    for (int b = 0; b < bytes; ++b) {
      h = (h ^ ((v >> (8 * b)) & 0xff)) * 0x100000001b3ULL;
    }
  };
  for (unsigned c = 0; c < cores; ++c) {
    for (std::uint64_t i = 0; i < ops; ++i) {
      const MemOp op = draw(c);
      mix(op.line, 8);
      mix(op.is_write ? 1 : 0, 1);
      mix(op.gap, 4);
    }
  }
  return h;
}

// The committed sweeps are functions of these op streams.  Both digests
// of every paper workload (8 cores, its paper sweep seed, 100k ops per
// core) are pinned, so a change to the generator that alters next() and
// the warm-up's block draws alike -- which comparing the two cannot see --
// fails.  The untimed digest, taken when the warm-up drew one op at a
// time, hashes the block draws' columns (gaps 0).
TEST(SyntheticSource, PaperStreamsMatchPinnedDigests) {
  struct Pinned {
    const char* name;
    std::uint64_t timed, untimed;
  };
  static constexpr Pinned kPinned[] = {
      {"mcf", 0xc5bb15515483c8c5ULL, 0x9db1b64a386d0c11ULL},
      {"lbm", 0xf30ec66327d4b970ULL, 0x22fea9d3f617dd01ULL},
      {"libquantum", 0x53bde742027cf672ULL, 0xaa35ee39ce1836c3ULL},
      {"milc", 0xe36c61ec46057404ULL, 0xb6498773943e8e56ULL},
      {"leslie3d", 0x0162966687a17c05ULL, 0xbf7461c8cbbfc31aULL},
      {"GemsFDTD", 0xa09f2053fcb7dab6ULL, 0xd0d98349e2406663ULL},
      {"canneal", 0x297110b445c92c1fULL, 0x5262c025907e23afULL},
      {"streamcluster", 0x07ab28529ad29fadULL, 0xc9e6221d2bf32376ULL},
      {"omnetpp", 0x34c385f26f7b52e4ULL, 0x229506b6488432bbULL},
      {"sjeng", 0x4404636611755244ULL, 0x27e54b250d03b814ULL},
      {"gcc", 0x9423717f07f169d6ULL, 0x419f2dd24ef6f1ddULL},
      {"bzip2", 0x2b79a7158e993cafULL, 0xca1fb0082b74053fULL},
      {"hmmer", 0x3bcf2d7161776121ULL, 0x65e4539b27c93976ULL},
      {"soplex", 0xea4c7e20b5aa3e65ULL, 0x1539efa7140fb3f0ULL},
      {"facesim", 0xa302181a7c50cd5cULL, 0x57fcd571e398dfb2ULL},
      {"ferret", 0xe76f16d07dffdf4bULL, 0x9dd7b7d53b4d3cdeULL},
  };
  constexpr unsigned kCores = 8;
  constexpr std::uint64_t kOps = 100'000;
  ASSERT_EQ(std::size(kPinned), paper_workloads().size());
  std::vector<MemOp> rounds(kOps * kCores);
  for (const Pinned& p : kPinned) {
    const WorkloadDesc& w = workload_by_name(p.name);
    SyntheticSource timed(w, kCores, paper_sweep_seed(w.name));
    SyntheticSource untimed(w, kCores, paper_sweep_seed(w.name));
    const std::uint64_t t = stream_digest(
        kCores, kOps, [&](unsigned c) { return timed.next(c); });
    // The warm-up's block size, then whatever is left.
    for (std::uint64_t done = 0; done < kOps;) {
      const std::uint64_t n = std::min<std::uint64_t>(64, kOps - done);
      untimed.next_rounds(rounds.data() + done * kCores, n);
      done += n;
    }
    std::vector<std::uint64_t> pos(kCores, 0);
    const std::uint64_t u =
        stream_digest(kCores, kOps, [&](unsigned c) {
          return rounds[pos[c]++ * kCores + c];
        });
    EXPECT_EQ(t, p.timed) << p.name << " next()";
    EXPECT_EQ(u, p.untimed) << p.name << " next_rounds()";
  }
}

// Recording must capture the full op and replay hands back what was
// recorded, so both return next()'s ops from next_rounds(), gaps
// included.  Block pulls and next() calls alternate on both.
TEST(TraceSource, RecordingAndReplayBlocksReturnTheFullOp) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "trace_test_blocks.ecctrace")
          .string();
  const auto& desc = workload_by_name("lbm");
  constexpr unsigned kCores = 2;
  constexpr std::size_t kRounds = 300;  // per source, 3 rounds per step
  std::vector<MemOp> out(3 * kCores);
  // Pulls kRounds rounds from `source`, every other step as one 3-round
  // block, and checks each op (gap included) against `reference`.
  const auto check = [&](TraceSource& source, const char* what) {
    SyntheticSource reference(desc, kCores, 11);
    bool saw_gap = false;
    for (std::size_t step = 0; step < kRounds / 3; ++step) {
      if (step % 2 == 0) {
        source.next_rounds(out.data(), 3);
      } else {
        for (std::size_t k = 0; k < out.size(); ++k) {
          out[k] = source.next(static_cast<unsigned>(k % kCores));
        }
      }
      for (std::size_t k = 0; k < out.size(); ++k) {
        const MemOp want = reference.next(static_cast<unsigned>(k % kCores));
        ASSERT_EQ(out[k].line, want.line) << what << " step " << step;
        ASSERT_EQ(out[k].is_write, want.is_write) << what << " step " << step;
        ASSERT_EQ(out[k].gap, want.gap) << what << " step " << step;
        if (step % 2 == 0 && out[k].gap != 0) saw_gap = true;
      }
    }
    EXPECT_TRUE(saw_gap) << what << ": lbm's gaps must not all be zero";
  };
  {
    tracefile::RecordingSource rec(
        std::make_unique<SyntheticSource>(desc, kCores, 11), path, 11);
    check(rec, "recording");
    rec.writer().close();
  }
  tracefile::ReplaySource replay(path);
  check(replay, "replay");
  EXPECT_EQ(replay.ops_replayed(), kRounds * kCores);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace eccsim::trace
