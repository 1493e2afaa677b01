// Concurrency stress tests for runner::parallel_for and the per-worker
// Collector discipline.  These are TSan targets: the tsan CMake preset
// builds them with -fsanitize=thread, so any data race in the index claim or
// in the parallel-sweep pattern (one Collector per cell, results read on
// the main thread after the join) is reported as a failure rather than a
// latent heisenbug.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "runner/thread_pool.hpp"
#include "sim/system.hpp"
#include "stats/stats.hpp"

namespace eccsim::runner {
namespace {

TEST(ParallelForStress, NestedCallsRunInlineAcrossManyRounds) {
  // Each item fans out again from inside a worker: the nested call must
  // run inline on that worker, in index order, and every index of every
  // round must run exactly once.
  for (unsigned round = 0; round < 25; ++round) {
    std::vector<std::vector<std::size_t>> inner(40);
    std::vector<int> inline_ok(40, 0);
    parallel_for(inner.size(), 4, [&](std::size_t i) {
      const std::thread::id outer = std::this_thread::get_id();
      bool same_thread = true;
      parallel_for(3, 4, [&](std::size_t j) {
        same_thread = same_thread && std::this_thread::get_id() == outer;
        inner[i].push_back(j);
      });
      inline_ok[i] = same_thread ? 1 : 0;
    });
    for (std::size_t i = 0; i < inner.size(); ++i) {
      ASSERT_EQ(inline_ok[i], 1) << "round " << round << " item " << i;
      ASSERT_EQ(inner[i], (std::vector<std::size_t>{0, 1, 2}))
          << "round " << round << " item " << i;
    }
  }
}

TEST(ParallelForStress, ParallelMiniSweepIsDeterministic) {
  // The runner's fan-out pattern in miniature: every cell owns its
  // SystemSim and its Collector; the main thread only reads results after
  // parallel_for() returns.  Duplicate cells must produce bit-identical
  // numbers whatever the interleaving, and gauge polling during the run
  // must not race the simulating worker.
  struct Cell {
    ecc::SchemeId scheme;
    double epi = 0;
    std::uint64_t mem_cycles = 0;
    double gauge_instructions = 0;
  };
  std::vector<Cell> cells;
  for (unsigned rep = 0; rep < 2; ++rep) {
    cells.push_back(Cell{ecc::SchemeId::kChipkill18});
    cells.push_back(Cell{ecc::SchemeId::kLotEcc5Parity});
    cells.push_back(Cell{ecc::SchemeId::kMultiEcc});
  }

  parallel_for(cells.size(), default_thread_count(), [&cells](std::size_t i) {
    Cell& cell = cells[i];
    stats::Config scfg;
    scfg.enabled = true;
    scfg.epoch_cycles = 5'000;
    stats::Collector collector(scfg);
    sim::SimOptions opts;
    opts.target_instructions = 30'000;
    opts.seed = 11;
    opts.stats = &collector;
    const sim::RunResult r = sim::run_experiment(
        cell.scheme, ecc::SystemScale::kQuadEquivalent, "lbm", opts);
    cell.epi = r.epi_pj;
    cell.mem_cycles = r.mem_cycles;
    cell.gauge_instructions =
        collector.registry().value("cpu.committed_instructions");
  });

  const std::size_t half = cells.size() / 2;
  for (std::size_t i = 0; i < half; ++i) {
    EXPECT_DOUBLE_EQ(cells[i].epi, cells[i + half].epi);
    EXPECT_EQ(cells[i].mem_cycles, cells[i + half].mem_cycles);
    EXPECT_DOUBLE_EQ(cells[i].gauge_instructions,
                     cells[i + half].gauge_instructions);
    EXPECT_GT(cells[i].epi, 0.0);
  }
}

}  // namespace
}  // namespace eccsim::runner
