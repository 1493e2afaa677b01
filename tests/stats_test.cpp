// Tests for the observability layer (src/stats): registry path semantics,
// histogram percentiles, epoch-delta sampling, merge determinism, the
// Chrome-trace exporter's output format, and the SystemSim integration --
// including the load-bearing guarantee that enabling stats never changes a
// simulated result.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "runner/json.hpp"
#include "runner/stats_json.hpp"
#include "sim/system.hpp"
#include "stats/scope.hpp"
#include "stats/stats.hpp"
#include "stats/trace.hpp"

namespace eccsim::stats {
namespace {

// ---------------------------------------------------------------------------
// Registry basics

TEST(Registry, CreateOrGetReturnsStablePointer) {
  Registry reg;
  Counter* a = reg.counter("dram.ch0.acts");
  Counter* b = reg.counter("dram.ch0.acts");
  EXPECT_EQ(a, b);
  EXPECT_EQ(reg.size(), 1u);
  a->inc(3);
  EXPECT_EQ(b->value(), 3u);
  EXPECT_DOUBLE_EQ(reg.value("dram.ch0.acts"), 3.0);
}

TEST(Registry, PathUniquenessAcrossKinds) {
  Registry reg;
  reg.counter("x");
  EXPECT_THROW(reg.accum("x"), std::invalid_argument);
  EXPECT_THROW(reg.distribution("x"), std::invalid_argument);
  EXPECT_THROW(reg.histogram("x", 0, 1, 4), std::invalid_argument);
  reg.distribution("d");
  EXPECT_THROW(reg.counter("d"), std::invalid_argument);
  EXPECT_THROW(reg.value("d"), std::invalid_argument);  // not a sampled kind
  EXPECT_THROW(reg.value("missing"), std::out_of_range);
  EXPECT_TRUE(reg.has("x"));
  EXPECT_FALSE(reg.has("missing"));
}

TEST(Registry, PointersSurviveManyRegistrations) {
  // Storage must not invalidate earlier stats when it grows.
  Registry reg;
  Counter* first = reg.counter("c0");
  for (int i = 1; i < 500; ++i) {
    reg.counter("c" + std::to_string(i));
  }
  first->inc();
  EXPECT_EQ(reg.value("c0"), 1.0);
}

TEST(Distribution, TracksMomentsAndExtremes) {
  Distribution d;
  EXPECT_EQ(d.count(), 0u);
  EXPECT_DOUBLE_EQ(d.mean(), 0.0);
  for (double x : {4.0, 1.0, 7.0}) d.add(x);
  EXPECT_EQ(d.count(), 3u);
  EXPECT_DOUBLE_EQ(d.sum(), 12.0);
  EXPECT_DOUBLE_EQ(d.mean(), 4.0);
  EXPECT_DOUBLE_EQ(d.min(), 1.0);
  EXPECT_DOUBLE_EQ(d.max(), 7.0);
}

// ---------------------------------------------------------------------------
// Histogram percentiles

TEST(Histogram, PercentilesInterpolate) {
  Histogram h(0, 100, 100);  // unit-width bins
  for (int i = 0; i < 100; ++i) h.add(i + 0.5);
  EXPECT_EQ(h.total(), 100u);
  // Uniform mass: percentile p should land near p.
  EXPECT_NEAR(h.percentile(50), 50.0, 1.0);
  EXPECT_NEAR(h.percentile(95), 95.0, 1.0);
  EXPECT_NEAR(h.percentile(99), 99.0, 1.0);
  EXPECT_GE(h.percentile(0), 0.0);
  EXPECT_LE(h.percentile(100), 100.0);
}

TEST(Histogram, OutOfRangeSamplesClampIntoEdgeBins) {
  Histogram h(0, 10, 10);
  h.add(-5);
  h.add(99);
  EXPECT_EQ(h.total(), 2u);
  EXPECT_EQ(h.bins().front(), 1u);
  EXPECT_EQ(h.bins().back(), 1u);
}

TEST(Histogram, EmptyPercentileIsZero) {
  Histogram h(0, 10, 10);
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
}

// ---------------------------------------------------------------------------
// Epoch-delta sampling

TEST(Registry, EpochDeltasMatchManualAccounting) {
  Registry reg;
  reg.set_epoch_cycles(100);
  Counter* c = reg.counter("events");
  Accum* a = reg.accum("energy_pj");
  double gauge_state = 0;
  reg.gauge("polled", [&gauge_state](std::uint64_t) { return gauge_state; });

  c->inc(5);
  a->add(1.5);
  gauge_state = 10;
  reg.sample_epoch(100);

  c->inc(2);
  gauge_state = 25;
  reg.sample_epoch(200);

  a->add(0.25);
  reg.finalize(250);  // final partial epoch

  ASSERT_EQ(reg.epoch_marks().size(), 3u);
  EXPECT_EQ(reg.epoch_marks()[0], 100u);
  EXPECT_EQ(reg.epoch_marks()[2], 250u);

  const std::vector<double>* ce = reg.epoch_series("events");
  ASSERT_NE(ce, nullptr);
  EXPECT_EQ(*ce, (std::vector<double>{5, 2, 0}));
  const std::vector<double>* ae = reg.epoch_series("energy_pj");
  ASSERT_NE(ae, nullptr);
  EXPECT_EQ(*ae, (std::vector<double>{1.5, 0, 0.25}));
  const std::vector<double>* ge = reg.epoch_series("polled");
  ASSERT_NE(ge, nullptr);
  EXPECT_EQ(*ge, (std::vector<double>{10, 15, 0}));

  // finalize() stored the gauge's last value and dropped the closure, so
  // reading it after the referenced state dies is safe.
  EXPECT_TRUE(reg.finalized());
  EXPECT_DOUBLE_EQ(reg.value("polled"), 25.0);
}

TEST(Registry, DerivedSeriesRoundTrip) {
  Registry reg;
  reg.add_series("derived.bw", {0.5, 0.75});
  ASSERT_EQ(reg.series().size(), 1u);
  EXPECT_EQ(reg.series()[0].first, "derived.bw");
  EXPECT_EQ(reg.series()[0].second, (std::vector<double>{0.5, 0.75}));
}

// ---------------------------------------------------------------------------
// Merge determinism

Registry make_shard(std::uint64_t counter_n, double accum_x,
                    std::vector<double> samples) {
  Registry reg;
  reg.counter("c")->inc(counter_n);
  reg.accum("a")->add(accum_x);
  Distribution* d = reg.distribution("lat");
  Histogram* h = reg.histogram("hist", 0, 100, 10);
  for (double s : samples) {
    d->add(s);
    h->add(s);
  }
  return reg;
}

TEST(Registry, MergeIsOrderIndependent) {
  // The sweep merges per-cell registries; a 1-thread and an N-thread
  // reduction visit them in different orders and must agree exactly.
  const std::vector<std::vector<double>> samples = {
      {1, 99}, {50}, {25, 75, 3}, {}};
  auto build = [&](const std::vector<int>& order) {
    Registry merged;
    for (int i : order) {
      merged.merge(make_shard(i + 1, 0.125 * (i + 1), samples[i]));
    }
    return merged;
  };
  Registry fwd = build({0, 1, 2, 3});
  Registry rev = build({3, 2, 1, 0});

  EXPECT_EQ(fwd.value("c"), rev.value("c"));
  EXPECT_EQ(fwd.value("c"), 1.0 + 2 + 3 + 4);
  // Bit-exact double equality is intentional: accums sum exactly here
  // (powers of two) and merge order must not matter for counters at all.
  EXPECT_DOUBLE_EQ(fwd.value("a"), rev.value("a"));
  auto views_equal = [](const Registry& x, const Registry& y,
                        const std::string& path) {
    // Compare via the serializer so dist + hist internals are covered.
    runner::Json jx = runner::to_json(x);
    runner::Json jy = runner::to_json(y);
    return jx.at("stats").at(path).dump() == jy.at("stats").at(path).dump();
  };
  EXPECT_TRUE(views_equal(fwd, rev, "lat"));
  EXPECT_TRUE(views_equal(fwd, rev, "hist"));
}

TEST(Registry, MergeRejectsKindMismatch) {
  Registry a;
  a.counter("x");
  Registry b;
  b.accum("x");
  EXPECT_THROW(a.merge(b), std::invalid_argument);
  Registry c;
  c.histogram("h", 0, 10, 10);
  Registry d;
  d.histogram("h", 0, 20, 10);  // different shape
  EXPECT_THROW(c.merge(d), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Scoped profiler

TEST(Profiler, DisabledScopesCostNothingAndRecordNothing) {
  Profiler::reset();
  Profiler::set_enabled(false);
  { STATS_SCOPE("test.disabled"); }
  for (const auto& [name, totals] : Profiler::snapshot()) {
    EXPECT_NE(name, "test.disabled");
    (void)totals;
  }
}

TEST(Profiler, EnabledScopesAccumulateCalls) {
  Profiler::reset();
  Profiler::set_enabled(true);
  for (int i = 0; i < 10; ++i) {
    STATS_SCOPE("test.enabled");
  }
  Profiler::set_enabled(false);
  bool found = false;
  for (const auto& [name, totals] : Profiler::snapshot()) {
    if (name == "test.enabled") {
      found = true;
      EXPECT_EQ(totals.calls, 10u);
      EXPECT_GE(totals.seconds, 0.0);
    }
  }
  EXPECT_TRUE(found);
  Profiler::reset();
}

// ---------------------------------------------------------------------------
// Trace well-formedness

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(Tracer, WritesPerfettoLoadableJson) {
  const std::string path = ::testing::TempDir() + "/eccsim_trace_test.json";
  Tracer tr(path, 100);
  tr.set_clock_ghz(1.0);  // 1 cycle = 1 ns = 0.001 us
  tr.set_thread_name(0, "dram.ch0");
  tr.duration("dram", "RD", 1000, 1004, 0, {{"bank", 3.0}, {"row", 17.0}});
  tr.instant("eccparity", "fig6_slow_path", 1500, 1, {{"bank", 2.0}});
  ASSERT_TRUE(tr.write());

  const runner::Json doc = runner::Json::parse(slurp(path));
  ASSERT_TRUE(doc.contains("traceEvents"));
  const auto& events = doc.at("traceEvents").items();
  // Two data events plus thread-name metadata.
  ASSERT_GE(events.size(), 3u);
  bool saw_x = false, saw_i = false, saw_meta = false;
  for (const runner::Json& e : events) {
    const std::string& ph = e.at("ph").as_string();
    if (ph == "M") {
      saw_meta = true;
      EXPECT_EQ(e.at("name").as_string(), "thread_name");
      continue;
    }
    // Every data event carries the standard keys with numeric ts.
    EXPECT_TRUE(e.contains("ts"));
    EXPECT_TRUE(e.contains("pid"));
    EXPECT_TRUE(e.contains("tid"));
    if (ph == "X") {
      saw_x = true;
      EXPECT_EQ(e.at("name").as_string(), "RD");
      EXPECT_EQ(e.at("cat").as_string(), "dram");
      EXPECT_DOUBLE_EQ(e.at("ts").as_number(), 1.0);    // 1000 cyc = 1 us
      EXPECT_DOUBLE_EQ(e.at("dur").as_number(), 0.004);
      EXPECT_DOUBLE_EQ(e.at("args").at("bank").as_number(), 3.0);
    } else if (ph == "i") {
      saw_i = true;
      EXPECT_EQ(e.at("cat").as_string(), "eccparity");
    }
  }
  EXPECT_TRUE(saw_x);
  EXPECT_TRUE(saw_i);
  EXPECT_TRUE(saw_meta);
  std::remove(path.c_str());
}

TEST(Tracer, RateLimitDropsButCounts) {
  const std::string path = ::testing::TempDir() + "/eccsim_trace_limit.json";
  Tracer tr(path, 5);
  for (std::uint64_t i = 0; i < 20; ++i) {
    tr.duration("dram", "RD", i * 10, i * 10 + 4, 0);
  }
  EXPECT_EQ(tr.recorded(), 5u);
  EXPECT_EQ(tr.dropped(), 15u);
  ASSERT_TRUE(tr.write());
  const runner::Json doc = runner::Json::parse(slurp(path));
  EXPECT_EQ(doc.at("traceEvents").items().size(), 5u);
  std::remove(path.c_str());
}

// A burst above the cap must drop from the tail only: the retained events
// are exactly the first `limit` issued, in issue order, and the resulting
// file is deterministic across identical runs.
TEST(Tracer, RateLimitKeepsPrefixInIssueOrder) {
  // The tracer retains name pointers until write(), so the burst uses
  // stable storage that outlives each run.
  static std::vector<std::string> names_storage;
  if (names_storage.empty()) {
    for (int i = 0; i < 20; ++i) names_storage.push_back("ev" + std::to_string(i));
  }
  const auto run_burst = [](const std::string& path) {
    Tracer tr(path, 6);
    tr.set_clock_ghz(1.0);
    // Interleave duration and instant events with distinct names so issue
    // order is recoverable from the file.
    for (std::uint64_t i = 0; i < 20; ++i) {
      const char* name = names_storage[i].c_str();
      if (i % 2 == 0) {
        tr.duration("dram", name, i * 100, i * 100 + 10, 0);
      } else {
        tr.instant("eccparity", name, i * 100, 1);
      }
    }
    EXPECT_EQ(tr.recorded(), 6u);
    EXPECT_EQ(tr.dropped(), 14u);
    EXPECT_TRUE(tr.write());
  };

  const std::string path_a = ::testing::TempDir() + "/eccsim_trace_ord_a.json";
  const std::string path_b = ::testing::TempDir() + "/eccsim_trace_ord_b.json";
  run_burst(path_a);

  const runner::Json doc = runner::Json::parse(slurp(path_a));
  std::vector<std::string> names;
  std::vector<double> timestamps;
  for (const runner::Json& e : doc.at("traceEvents").items()) {
    if (e.at("ph").as_string() == "M") continue;
    names.push_back(e.at("name").as_string());
    timestamps.push_back(e.at("ts").as_number());
  }
  // Exactly the first six issued events survive, in issue order.
  const std::vector<std::string> want = {"ev0", "ev1", "ev2",
                                         "ev3", "ev4", "ev5"};
  EXPECT_EQ(names, want);
  for (std::size_t i = 1; i < timestamps.size(); ++i) {
    EXPECT_LE(timestamps[i - 1], timestamps[i]);
  }

  // Deterministic: an identical second run emits byte-identical output.
  run_burst(path_b);
  EXPECT_EQ(slurp(path_a), slurp(path_b));
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

// ---------------------------------------------------------------------------
// SystemSim integration

sim::SimOptions sim_opts() {
  sim::SimOptions o;
  o.target_instructions = 300'000;
  o.seed = 7;
  return o;
}

TEST(SystemSimStats, CollectsEpochsChannelsAndSlowPathEvents) {
  Config cfg;
  cfg.enabled = true;
  cfg.epoch_cycles = 500;
  Collector col(cfg);
  const std::string trace_path =
      ::testing::TempDir() + "/eccsim_sim_trace.json";
  col.open_trace(trace_path);

  sim::SimOptions opts = sim_opts();
  opts.stats = &col;
  // Faulty banks on channel 0 force Fig. 6 slow-path activity.
  for (std::uint32_t rank = 0; rank < 4; ++rank) {
    for (std::uint32_t bank = 0; bank < 8; ++bank) {
      opts.faulty_banks.push_back((0u << 16) | (rank << 8) | bank);
    }
  }
  const sim::RunResult r = sim::run_experiment(
      ecc::SchemeId::kLotEcc5Parity, ecc::SystemScale::kQuadEquivalent,
      "lbm", opts);
  EXPECT_GT(r.instructions, 0u);

  const Registry& reg = col.registry();
  EXPECT_TRUE(reg.finalized());
  // >= 3 epochs of series data (the acceptance bar for the smoke run).
  EXPECT_GE(reg.epoch_marks().size(), 3u);
  // Per-channel counters exist and saw traffic.
  EXPECT_TRUE(reg.has("dram.ch0.acts"));
  EXPECT_GT(reg.value("dram.ch0.acts"), 0.0);
  EXPECT_GT(reg.value("dram.ch0.reads"), 0.0);
  EXPECT_GT(reg.value("dram.ch0.energy.total_pj"), 0.0);
  EXPECT_TRUE(reg.has("llc.hits"));
  // The degraded run exercised the ECC-parity slow path.
  ASSERT_TRUE(reg.has("eccparity.fig6_slow_path_hits"));
  EXPECT_GT(reg.value("eccparity.fig6_slow_path_hits"), 0.0);

  // The trace mirrors DRAM commands and slow-path instants, and parses.
  Tracer* tr = col.tracer();
  ASSERT_NE(tr, nullptr);
  EXPECT_GT(tr->recorded(), 0u);
  ASSERT_TRUE(tr->write());
  const runner::Json doc = runner::Json::parse(slurp(trace_path));
  bool saw_dram = false, saw_slow_path = false;
  for (const runner::Json& e : doc.at("traceEvents").items()) {
    if (!e.contains("cat")) continue;
    const std::string& cat = e.at("cat").as_string();
    if (cat == "dram") saw_dram = true;
    if (cat.find("eccparity") != std::string::npos &&
        e.at("name").as_string() == "fig6_slow_path") {
      saw_slow_path = true;
    }
  }
  EXPECT_TRUE(saw_dram);
  EXPECT_TRUE(saw_slow_path);
  std::remove(trace_path.c_str());
}

TEST(SystemSimStats, EnablingStatsDoesNotPerturbResults) {
  // The contract everything else rests on: observation only.
  sim::SimOptions plain = sim_opts();
  const sim::RunResult base = sim::run_experiment(
      ecc::SchemeId::kLotEcc5Parity, ecc::SystemScale::kQuadEquivalent,
      "milc", plain);

  Config cfg;
  cfg.enabled = true;
  cfg.epoch_cycles = 250;
  Collector col(cfg);
  sim::SimOptions with_stats = sim_opts();
  with_stats.stats = &col;
  const sim::RunResult observed = sim::run_experiment(
      ecc::SchemeId::kLotEcc5Parity, ecc::SystemScale::kQuadEquivalent,
      "milc", with_stats);

  EXPECT_EQ(base.instructions, observed.instructions);
  EXPECT_EQ(base.mem_cycles, observed.mem_cycles);
  EXPECT_EQ(base.mem.reads, observed.mem.reads);
  EXPECT_EQ(base.mem.writes, observed.mem.writes);
  // Bit-exact doubles, not EXPECT_NEAR: stats must be pure observation.
  EXPECT_EQ(base.ipc, observed.ipc);
  EXPECT_EQ(base.epi_pj, observed.epi_pj);
  EXPECT_EQ(base.dynamic_epi_pj, observed.dynamic_epi_pj);
  EXPECT_EQ(base.background_epi_pj, observed.background_epi_pj);
}

// ---------------------------------------------------------------------------
// Registry -> JSON serialization

TEST(StatsJson, SerializesEveryKind) {
  Registry reg;
  reg.set_epoch_cycles(100);
  reg.counter("c")->inc(4);
  reg.accum("a")->add(2.5);
  reg.distribution("d")->add(3);
  Histogram* h = reg.histogram("h", 0, 10, 5);
  h->add(1);
  h->add(9);
  reg.sample_epoch(100);
  reg.finalize(150);
  reg.add_series("derived.x", {1, 2});

  const runner::Json doc = runner::to_json(reg);
  EXPECT_EQ(doc.at("epoch_cycles").as_number(), 100.0);
  EXPECT_EQ(doc.at("epoch_marks").items().size(), 2u);
  const runner::Json& stats = doc.at("stats");
  EXPECT_EQ(stats.at("c").at("kind").as_string(), "counter");
  EXPECT_EQ(stats.at("c").at("value").as_number(), 4.0);
  EXPECT_EQ(stats.at("c").at("epochs").items().size(), 2u);
  EXPECT_EQ(stats.at("a").at("kind").as_string(), "accum");
  EXPECT_EQ(stats.at("d").at("kind").as_string(), "distribution");
  EXPECT_EQ(stats.at("d").at("count").as_number(), 1.0);
  EXPECT_EQ(stats.at("h").at("kind").as_string(), "histogram");
  EXPECT_EQ(stats.at("h").at("total").as_number(), 2.0);
  EXPECT_TRUE(stats.at("h").contains("p95"));
  EXPECT_TRUE(doc.at("series").contains("derived.x"));
  // The document survives a round trip through its own text form.
  const runner::Json reparsed = runner::Json::parse(doc.dump());
  EXPECT_EQ(reparsed.dump(), doc.dump());
}

}  // namespace
}  // namespace eccsim::stats
