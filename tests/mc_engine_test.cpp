// Tests for the chunked Monte Carlo engine (faults/mc_engine.hpp): bit
// identity at any thread count and chunk size, checkpoint/resume,
// confidence-interval early termination, mc.* observability, and the
// statistical regression checks tying the fault studies to their
// closed-form models.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.hpp"
#include "common/units.hpp"
#include "faults/fault_model.hpp"
#include "faults/mc_engine.hpp"
#include "faults/montecarlo.hpp"
#include "runner/thread_pool.hpp"
#include "stats/stats.hpp"

namespace eccsim::faults {
namespace {

/// A cheap deterministic per-system computation with enough RNG draws
/// that stream mixups would show.
void fake_system(unsigned index, Rng& rng, double* f) {
  double acc = 0;
  for (int i = 0; i < 16; ++i) acc += rng.next_double();
  f[0] = acc;
  f[1] = static_cast<double>(index) + rng.next_double();
}

/// Runs the fake study and returns the merged per-system fields in merge
/// order (which the engine guarantees is index order).
std::vector<double> run_fake(unsigned systems, McOptions opts,
                             McRunInfo* info_out = nullptr) {
  std::vector<double> merged;
  RunningStat stat;
  const McRunInfo info =
      mc_run(systems, 42, 2, "fake", opts, fake_system,
             [&](unsigned, const double* f) {
               merged.push_back(f[0]);
               merged.push_back(f[1]);
               stat.add(f[0]);
             },
             [&] { return relative_ci95(stat); });
  if (info_out != nullptr) *info_out = info;
  return merged;
}

std::string temp_path(const char* name) {
  return testing::TempDir() + "/" + name;
}

/// True when the checkpoint file at `path` holds a line for chunk `ci`.
bool checkpoint_has_chunk(const std::string& path, unsigned ci) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream is(line);
    std::string tag, id;
    unsigned index = 0;
    if (is >> tag >> id >> index && tag == "mcchunk1" && index == ci) {
      return true;
    }
  }
  return false;
}

TEST(McEngine, SystemRngIsPerIndexDeterministic) {
  Rng a = mc_system_rng(7, 3);
  Rng b = mc_system_rng(7, 3);
  Rng c = mc_system_rng(7, 4);
  EXPECT_EQ(a.next(), b.next());
  EXPECT_NE(a.next(), c.next());
  EXPECT_NE(mc_sample_key(7, 3), mc_sample_key(7, 4));
}

TEST(McEngine, BitIdenticalAcrossThreadsAndChunks) {
  McOptions serial;
  serial.threads = 1;
  const std::vector<double> reference = run_fake(301, serial);
  ASSERT_EQ(reference.size(), 2u * 301u);

  for (unsigned threads : {2u, 4u}) {
    for (unsigned chunk : {1u, 7u, 64u, 301u, 1000u}) {
      McOptions opts;
      opts.threads = threads;
      opts.chunk_size = chunk;
      McRunInfo info;
      const std::vector<double> got = run_fake(301, opts, &info);
      ASSERT_EQ(got.size(), reference.size())
          << "threads=" << threads << " chunk=" << chunk;
      for (std::size_t i = 0; i < got.size(); ++i) {
        // Bit identity, not tolerance: the whole point of in-order merge.
        EXPECT_EQ(got[i], reference[i])
            << "i=" << i << " threads=" << threads << " chunk=" << chunk;
      }
      EXPECT_EQ(info.systems_merged, 301u);
    }
  }
}

TEST(McEngine, MergesInStrictIndexOrder) {
  McOptions opts;
  opts.threads = 4;
  opts.chunk_size = 13;
  std::vector<unsigned> order;
  mc_run(100, 1, 1, "order", opts,
         [](unsigned, Rng&, double* f) { f[0] = 0; },
         [&](unsigned index, const double*) { order.push_back(index); });
  ASSERT_EQ(order.size(), 100u);
  for (unsigned i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(McEngine, NestedRunExecutesInlineOnWorker) {
  // A Monte Carlo launched from inside a parallel_for worker (as a sweep
  // cell would) must not start threads of its own -- every system and
  // every merge runs on that worker -- and must still produce the same
  // bits as a top-level run.
  const std::vector<double> reference = run_fake(64, McOptions{});
  std::vector<double> nested;
  bool all_on_worker = true;
  runner::parallel_for(2, 2, [&](std::size_t item) {
    if (item != 0) return;
    const std::thread::id worker = std::this_thread::get_id();
    McOptions opts;
    opts.threads = 8;  // would oversubscribe if honored
    opts.chunk_size = 8;
    mc_run(64, 42, 2, "fake", opts,
           [&](unsigned index, Rng& rng, double* f) {
             all_on_worker = all_on_worker &&
                             std::this_thread::get_id() == worker;
             fake_system(index, rng, f);
           },
           [&](unsigned, const double* f) {
             all_on_worker = all_on_worker &&
                             std::this_thread::get_id() == worker;
             nested.push_back(f[0]);
             nested.push_back(f[1]);
           });
  });
  EXPECT_TRUE(all_on_worker);
  ASSERT_EQ(nested.size(), reference.size());
  for (std::size_t i = 0; i < nested.size(); ++i) {
    EXPECT_EQ(nested[i], reference[i]);
  }
}

TEST(McEngine, FirstChunkIsCheckpointedBeforeTheLastChunkStarts) {
  // Chunks start in index order, and the worker that completes a chunk
  // merges and checkpoints every ready chunk before it claims another.
  // Chunks 1..14 wait (bounded) for chunk 0's merge, so by the time the
  // last chunk starts, chunk 0 must be merged and on disk, and every
  // earlier chunk must have started but the at most threads-1 that other
  // threads have claimed and not yet begun.
  constexpr unsigned kChunk = 4;
  constexpr unsigned kChunks = 16;
  const std::string path = temp_path("mc_progress.ck");
  std::remove(path.c_str());
  McOptions opts;
  opts.threads = 4;
  opts.chunk_size = kChunk;
  opts.checkpoint_path = path;
  std::mutex mu;
  std::condition_variable cv;
  // Guarded by mu.
  bool first_merged = false;
  unsigned started = 0;
  unsigned started_before_last = 0;
  bool last_saw_merge = false;
  bool last_saw_line = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  mc_run(kChunk * kChunks, 5, 1, "progress", opts,
         [&](unsigned index, Rng&, double* f) {
           f[0] = index;
           if (index % kChunk != 0) return;
           const unsigned ci = index / kChunk;
           std::unique_lock<std::mutex> lock(mu);
           if (ci == kChunks - 1) {
             started_before_last = started;
             last_saw_merge = first_merged;
             last_saw_line = checkpoint_has_chunk(path, 0);
             return;
           }
           ++started;
           if (ci != 0) {
             cv.wait_until(lock, deadline, [&] { return first_merged; });
           }
         },
         [](unsigned, const double*) {},
         [&] {
           {
             std::lock_guard<std::mutex> lock(mu);
             first_merged = true;
           }
           cv.notify_all();
           return 1.0;
         });
  EXPECT_TRUE(last_saw_merge) << "chunk 0 not merged when the last started";
  EXPECT_TRUE(last_saw_line)
      << "chunk 0 not checkpointed when the last started";
  EXPECT_GE(started_before_last, kChunks - opts.threads);
  std::remove(path.c_str());
}

TEST(McEngine, CheckpointRoundTripSkipsLoadedChunks) {
  const std::string path = temp_path("mc_roundtrip.ck");
  std::remove(path.c_str());
  McOptions opts;
  opts.threads = 2;
  opts.chunk_size = 32;
  opts.checkpoint_path = path;
  McRunInfo first;
  const std::vector<double> a = run_fake(200, opts, &first);
  EXPECT_EQ(first.chunks_loaded, 0u);
  EXPECT_EQ(first.chunks_merged, 7u);

  McRunInfo second;
  const std::vector<double> b = run_fake(200, opts, &second);
  EXPECT_EQ(second.chunks_loaded, 7u);
  EXPECT_EQ(second.chunks_merged, 7u);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  std::remove(path.c_str());
}

TEST(McEngine, ResumeAfterPartialFileIsIdentical) {
  const std::string full_path = temp_path("mc_full.ck");
  const std::string part_path = temp_path("mc_part.ck");
  std::remove(full_path.c_str());
  std::remove(part_path.c_str());
  McOptions opts;
  opts.threads = 1;
  opts.chunk_size = 32;
  opts.checkpoint_path = full_path;
  const std::vector<double> reference = run_fake(200, opts);

  // Simulate a mid-run kill: keep the header, two complete chunk lines,
  // and one torn (half-written) line.
  std::ifstream in(full_path);
  std::string line, partial;
  int kept = 0;
  {
    std::ofstream out(part_path);
    while (std::getline(in, line)) {
      if (line.rfind("mcchunk1", 0) != 0) {
        out << line << '\n';
        continue;
      }
      if (kept < 2) {
        out << line << '\n';
        ++kept;
      } else {
        out << line.substr(0, line.size() / 2);  // torn write, no newline
        break;
      }
    }
  }
  opts.checkpoint_path = part_path;
  McRunInfo info;
  const std::vector<double> resumed = run_fake(200, opts, &info);
  EXPECT_EQ(info.chunks_loaded, 2u);
  ASSERT_EQ(resumed.size(), reference.size());
  for (std::size_t i = 0; i < resumed.size(); ++i) {
    EXPECT_EQ(resumed[i], reference[i]);
  }
  std::remove(full_path.c_str());
  std::remove(part_path.c_str());
}

TEST(McEngine, CheckpointRejectsMismatchedParameters) {
  const std::string path = temp_path("mc_mismatch.ck");
  std::remove(path.c_str());
  McOptions opts;
  opts.chunk_size = 32;
  opts.checkpoint_path = path;
  run_fake(128, opts);

  // Different seed -> different run identity -> nothing restored.
  std::vector<double> merged;
  const McRunInfo info = mc_run(
      128, 43, 2, "fake", opts, fake_system,
      [&](unsigned, const double* f) { merged.push_back(f[0]); });
  EXPECT_EQ(info.chunks_loaded, 0u);
  EXPECT_EQ(merged.size(), 128u);
  std::remove(path.c_str());
}

TEST(McEngine, EarlyStopConvergesAndIsThreadCountInvariant) {
  auto run = [](unsigned threads) {
    McOptions opts;
    opts.threads = threads;
    opts.chunk_size = 50;
    opts.target_rel_ci = 0.05;
    opts.min_systems = 200;
    McRunInfo info;
    run_fake(100'000, opts, &info);
    return info;
  };
  const McRunInfo serial = run(1);
  EXPECT_TRUE(serial.early_stopped);
  EXPECT_GE(serial.systems_merged, 200u);
  EXPECT_LT(serial.systems_merged, 100'000u);
  EXPECT_LE(serial.final_rel_ci, 0.05);
  // The stopping point depends only on the chunk size, not on threads.
  const McRunInfo parallel = run(4);
  EXPECT_TRUE(parallel.early_stopped);
  EXPECT_EQ(parallel.systems_merged, serial.systems_merged);
  EXPECT_EQ(parallel.chunks_merged, serial.chunks_merged);
}

TEST(McEngine, ResumingAnEarlyStoppedRunSimulatesNothingNew) {
  // Regression for the checkpoint x --mc-target-rel-ci interaction
  // (docs/CHECKPOINTS.md): an early-stopped run records only the chunks
  // that merged, and resuming it must replay those chunks through the
  // same convergence checks, stop at the same boundary, and evaluate zero
  // new systems at any thread count: loaded chunks pass through the merge
  // cursor before any chunk is computed.
  const std::string path = temp_path("mc_earlystop_resume.ck");
  std::remove(path.c_str());
  McOptions opts;
  opts.threads = 1;
  opts.chunk_size = 50;
  opts.target_rel_ci = 0.05;
  opts.min_systems = 200;
  opts.checkpoint_path = path;
  McRunInfo first;
  const std::vector<double> reference = run_fake(100'000, opts, &first);
  ASSERT_TRUE(first.early_stopped);
  ASSERT_LT(first.systems_merged, 100'000u);

  for (unsigned threads : {1u, 4u}) {
    opts.threads = threads;
    std::atomic<unsigned> simulated{0};
    std::vector<double> resumed;
    RunningStat stat;
    const McRunInfo second = mc_run(
        100'000, 42, 2, "fake", opts,
        [&](unsigned index, Rng& rng, double* f) {
          ++simulated;
          fake_system(index, rng, f);
        },
        [&](unsigned, const double* f) {
          resumed.push_back(f[0]);
          resumed.push_back(f[1]);
          stat.add(f[0]);
        },
        [&] { return relative_ci95(stat); });
    EXPECT_EQ(simulated.load(), 0u)  // no extra chunk ever executed
        << "threads=" << threads;
    EXPECT_TRUE(second.early_stopped);
    EXPECT_EQ(second.chunks_loaded, first.chunks_merged);
    EXPECT_EQ(second.chunks_merged, first.chunks_merged);
    EXPECT_EQ(second.systems_merged, first.systems_merged);
    ASSERT_EQ(resumed.size(), reference.size());
    for (std::size_t i = 0; i < resumed.size(); ++i) {
      EXPECT_EQ(resumed[i], reference[i]);
    }
  }
  std::remove(path.c_str());
}

TEST(McEngine, RegistersMcStats) {
  stats::Registry reg;
  McOptions opts;
  opts.chunk_size = 25;
  opts.stats = &reg;
  opts.target_rel_ci = 1e-9;  // unreachable: exercises the CI series
  run_fake(100, opts);
  EXPECT_EQ(reg.value("mc.systems_simulated"), 100.0);
  EXPECT_EQ(reg.value("mc.systems_merged"), 100.0);
  EXPECT_EQ(reg.value("mc.chunks_merged"), 4.0);
  EXPECT_EQ(reg.value("mc.chunks_loaded"), 0.0);
  EXPECT_EQ(reg.value("mc.early_stops"), 0.0);
  ASSERT_EQ(reg.series().size(), 1u);
  EXPECT_EQ(reg.series()[0].first, "mc.rel_ci.fake");
  EXPECT_EQ(reg.series()[0].second.size(), 4u);
}

// ---------------------------------------------------------------------------
// Statistical regression: simulation vs closed form, with tolerances
// derived from the run's own sample count, and bit identity of the study
// functions across execution configurations.

TEST(McStatistics, MtbfAgreesWithAnalyticWithinSamplingError) {
  SystemShape shape;
  const FitRates rates = ddr3_vendor_average();
  const auto res = mtbf_between_channels(shape, rates, 400,
                                         200 * units::kHoursPerYear, 17);
  ASSERT_TRUE(res.has_data());
  // Gap times are roughly exponential (CV ~= 1), so the standard error of
  // the mean over n gaps is ~mean/sqrt(n); allow 5 sigma plus a 5% model
  // bias margin (inter-channel gaps are conditioned, not plain renewal
  // intervals).
  const double sigma =
      res.analytic_hours / std::sqrt(static_cast<double>(res.gaps_observed));
  EXPECT_NEAR(res.simulated_hours, res.analytic_hours,
              5.0 * sigma + 0.05 * res.analytic_hours);
}

TEST(McStatistics, WindowProbabilityAgreesWithinSamplingError) {
  SystemShape shape;
  const FitRates rates = ddr3_vendor_average().scaled_to(3000.0);
  const unsigned systems = 4000;
  const auto res = multichannel_window_probability(
      shape, rates, 24.0 * 30, 7 * units::kHoursPerYear, systems, 33);
  const double p = res.analytic_probability;
  ASSERT_GT(p, 0.05);
  // Bernoulli standard error at the analytic p; 5 sigma.
  const double sigma = std::sqrt(p * (1 - p) / systems);
  EXPECT_NEAR(res.simulated_probability, p, 5.0 * sigma);
  EXPECT_EQ(res.bad_systems,
            static_cast<std::uint64_t>(
                std::lround(res.simulated_probability * systems)));
}

TEST(McStatistics, HpcStallSimulationMatchesClosedForm) {
  const auto res =
      hpc_stall_fraction_mc(HpcStallParams{}, ddr3_vendor_average(), 300, 9);
  ASSERT_GT(res.events_sampled, 1000u);
  // The per-system fraction is (count * stall) / lifetime with Poisson
  // count, so the relative standard error is 1/sqrt(total events).
  const double rel_sigma =
      1.0 / std::sqrt(static_cast<double>(res.events_sampled));
  EXPECT_NEAR(res.simulated_fraction, res.analytic_fraction,
              5.0 * rel_sigma * res.analytic_fraction);
}

TEST(McStatistics, StudiesBitIdenticalAcrossExecutionConfigs) {
  SystemShape shape;
  const FitRates rates = ddr3_vendor_average();
  const double life = 20 * units::kHoursPerYear;
  McOptions serial;
  serial.threads = 1;
  const auto m1 = mtbf_between_channels(shape, rates, 150, life, 3, serial);
  const auto e1 = eol_materialized_fraction(shape, rates, 150, life, 3, serial);
  for (unsigned threads : {2u, 4u}) {
    McOptions opts;
    opts.threads = threads;
    opts.chunk_size = 11;
    const auto m2 = mtbf_between_channels(shape, rates, 150, life, 3, opts);
    EXPECT_EQ(m1.simulated_hours, m2.simulated_hours);
    EXPECT_EQ(m1.gaps_observed, m2.gaps_observed);
    EXPECT_EQ(m1.events_sampled, m2.events_sampled);
    const auto e2 =
        eol_materialized_fraction(shape, rates, 150, life, 3, opts);
    EXPECT_EQ(e1.mean_fraction, e2.mean_fraction);
    EXPECT_EQ(e1.p999_fraction, e2.p999_fraction);
    EXPECT_EQ(e1.systems_with_any, e2.systems_with_any);
  }
}

TEST(McStatistics, MtbfNoDataIsNaNNotZero) {
  SystemShape shape;
  FitRates zero;  // no faults ever -> no gaps -> no data
  const auto res = mtbf_between_channels(shape, zero, 50, 1e4, 1);
  EXPECT_EQ(res.gaps_observed, 0u);
  EXPECT_FALSE(res.has_data());
  EXPECT_TRUE(std::isnan(res.simulated_hours));
  EXPECT_TRUE(std::isinf(res.analytic_hours));
}

TEST(McStatistics, EolTailReservoirStaysExactUpToCap) {
  SystemShape shape;
  const auto res = eol_materialized_fraction(
      shape, ddr3_vendor_average(), 500, 7 * units::kHoursPerYear, 6);
  EXPECT_TRUE(res.p999_exact);  // 500 systems << kEolReservoirCap
  EXPECT_GE(res.p999_fraction, res.mean_fraction);
}

}  // namespace
}  // namespace eccsim::faults
