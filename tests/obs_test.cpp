// The observability layer: atomic status-file publishing (a reader must
// never observe a torn document), heartbeat sequencing/throttling, run
// manifest round-trips and the MC engine's resumed flag, the OpenMetrics
// exporter's output format, and perf-history append/compare semantics --
// including the >15% regression gate the CI perf job relies on.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "faults/mc_engine.hpp"
#include "obs/heartbeat.hpp"
#include "obs/manifest.hpp"
#include "obs/openmetrics.hpp"
#include "obs/perf_history.hpp"
#include "obs/run_info.hpp"
#include "runner/json.hpp"
#include "stats/stats.hpp"

namespace eccsim::obs {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---------------------------------------------------------------------------
// atomic_write_file

TEST(AtomicWriteFile, WritesContentAndCreatesParents) {
  const std::string dir = ::testing::TempDir() + "/obs_aw_nested/deeper";
  const std::string path = dir + "/file.json";
  ASSERT_TRUE(atomic_write_file(path, "{\"a\": 1}\n"));
  EXPECT_EQ(slurp(path), "{\"a\": 1}\n");
  ASSERT_TRUE(atomic_write_file(path, "{\"b\": 2}\n"));
  EXPECT_EQ(slurp(path), "{\"b\": 2}\n");
  std::remove(path.c_str());
}

TEST(AtomicWriteFile, LeavesNoTemporaryBehind) {
  const std::string path = ::testing::TempDir() + "/obs_aw_clean.json";
  ASSERT_TRUE(atomic_write_file(path, "x\n"));
  const std::string tmp = path + ".tmp." + std::to_string(getpid());
  EXPECT_FALSE(std::ifstream(tmp).good());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Heartbeat

HeartbeatConfig status_config(const std::string& path,
                              std::uint64_t interval_ms = 0) {
  HeartbeatConfig cfg;
  cfg.status_path = path;
  cfg.min_interval_ms = interval_ms;
  return cfg;
}

TEST(Heartbeat, DisabledByDefaultAndSkipsTicks) {
  Heartbeat hb;
  EXPECT_FALSE(hb.enabled());
  hb.tick({"phase", 1, 10});
  EXPECT_EQ(hb.snapshots_written(), 0u);
}

TEST(Heartbeat, PublishesParsableSnapshotWithSchema) {
  const std::string path = ::testing::TempDir() + "/obs_hb_basic.json";
  Heartbeat hb(status_config(path));
  hb.set_tool("obs_test");
  Heartbeat::Tick t;
  t.phase = "sweep";
  t.done = 3;
  t.total = 10;
  t.counters = {{"cells_done", 3.0}};
  hb.tick(t);
  const runner::Json doc = runner::Json::parse(slurp(path));
  EXPECT_EQ(doc.at("schema").as_string(), "eccsim.heartbeat/1");
  EXPECT_EQ(doc.at("tool").as_string(), "obs_test");
  EXPECT_EQ(doc.at("phase").as_string(), "sweep");
  EXPECT_EQ(doc.at("done").as_number(), 3.0);
  EXPECT_EQ(doc.at("total").as_number(), 10.0);
  EXPECT_EQ(doc.at("counters").at("cells_done").as_number(), 3.0);
  EXPECT_FALSE(doc.at("final").as_bool());
  EXPECT_TRUE(doc.at("rel_ci").is_null());
  std::remove(path.c_str());
}

TEST(Heartbeat, FinalTickMarksFinalAndSeqIncreases) {
  const std::string path = ::testing::TempDir() + "/obs_hb_final.json";
  Heartbeat hb(status_config(path));
  hb.tick({"run", 1, 4});
  hb.tick({"run", 2, 4});
  hb.tick({"run", 4, 4});
  EXPECT_EQ(hb.snapshots_written(), 3u);
  const runner::Json doc = runner::Json::parse(slurp(path));
  EXPECT_TRUE(doc.at("final").as_bool());
  EXPECT_EQ(doc.at("seq").as_number(), 3.0);
  std::remove(path.c_str());
}

TEST(Heartbeat, IntervalThrottleDropsIntermediateTicks) {
  const std::string path = ::testing::TempDir() + "/obs_hb_throttle.json";
  // An hour-long interval: only the first tick and the forced/final ones
  // may publish.
  Heartbeat hb(status_config(path, 3'600'000));
  for (std::uint64_t i = 1; i <= 50; ++i) hb.tick({"run", i, 100});
  EXPECT_EQ(hb.snapshots_written(), 1u);
  Heartbeat::Tick forced;
  forced.phase = "run";
  forced.done = 60;
  forced.total = 100;
  forced.force = true;
  hb.tick(forced);
  hb.tick({"run", 100, 100});  // final: bypasses the throttle too
  EXPECT_EQ(hb.snapshots_written(), 3u);
  std::remove(path.c_str());
}

TEST(Heartbeat, RelCiSeriesResetsOnPhaseChange) {
  const std::string path = ::testing::TempDir() + "/obs_hb_phase.json";
  Heartbeat hb(status_config(path));
  Heartbeat::Tick t;
  t.phase = "mc:a";
  t.total = 10;
  for (std::uint64_t i = 1; i <= 3; ++i) {
    t.done = i;
    t.rel_ci = 1.0 / static_cast<double>(i);
    hb.tick(t);
  }
  runner::Json doc = runner::Json::parse(slurp(path));
  EXPECT_EQ(doc.at("rel_ci_series").items().size(), 3u);
  EXPECT_DOUBLE_EQ(doc.at("rel_ci").as_number(), 1.0 / 3.0);

  t.phase = "mc:b";
  t.done = 1;
  t.rel_ci = 0.5;
  hb.tick(t);
  doc = runner::Json::parse(slurp(path));
  ASSERT_EQ(doc.at("rel_ci_series").items().size(), 1u);
  EXPECT_DOUBLE_EQ(doc.at("rel_ci_series").items()[0].as_number(), 0.5);
  std::remove(path.c_str());
}

// The atomic-rename contract: a concurrent reader either sees the
// previous complete document or the new one -- never a torn mix.  A
// writer thread republishes as fast as it can while readers parse every
// successful read; any torn write would fail Json::parse.
TEST(Heartbeat, ConcurrentReaderNeverSeesTornSnapshot) {
  const std::string path = ::testing::TempDir() + "/obs_hb_torn.json";
  Heartbeat hb(status_config(path));
  hb.tick({"warmup", 1, 1000});  // file exists before readers start

  std::atomic<bool> stop{false};
  std::atomic<int> parsed{0};
  std::atomic<int> failures{0};
  std::thread reader([&] {
    while (!stop.load()) {
      const std::string text = slurp(path);
      if (text.empty()) continue;  // between rename and open: fine
      try {
        const runner::Json doc = runner::Json::parse(text);
        EXPECT_EQ(doc.at("schema").as_string(), "eccsim.heartbeat/1");
        parsed.fetch_add(1);
      } catch (const std::exception&) {
        failures.fetch_add(1);
      }
    }
  });
  // Vary the payload size so a torn write would be detectable (short new
  // content over a longer old file cannot happen with rename, but would
  // with in-place writes).
  for (std::uint64_t i = 1; i <= 400; ++i) {
    Heartbeat::Tick t;
    t.phase = i % 2 == 0 ? "even-phase-with-a-much-longer-name" : "odd";
    t.done = i;
    t.total = 1000;
    for (std::uint64_t c = 0; c < i % 7; ++c) {
      t.counters.emplace_back("counter" + std::to_string(c),
                              static_cast<double>(i));
    }
    hb.tick(t);
  }
  stop.store(true);
  reader.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(parsed.load(), 0);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Manifest

TEST(Manifest, JsonRoundTripPreservesEveryField) {
  Manifest m;
  m.tool = "sweep_figures";
  m.args = {"--smoke", "--status", "s.json"};
  m.git_sha = "0123456789abcdef0123456789abcdef01234567";
  m.dram = "ddr4";
  m.seed_regime = "paper_sweep_seed(root=1)";
  m.threads = 8;
  m.host = "ci-runner-3";
  m.host_cpus = 16;
  m.started_utc = "2026-08-09T00:00:00Z";
  m.finished_utc = "2026-08-09T00:01:40Z";
  m.wall_seconds = 100.5;
  m.peak_rss_bytes = 123456789;
  m.status = "completed";
  m.exit_code = 0;
  m.resumed = true;
  m.extra = {{"fidelity", "smoke"}};

  const runner::Json doc = to_json(m);
  EXPECT_EQ(doc.at("schema").as_string(), "eccsim.manifest/1");
  const Manifest r = manifest_from_json(runner::Json::parse(doc.dump(2)));
  EXPECT_EQ(r.tool, m.tool);
  EXPECT_EQ(r.args, m.args);
  EXPECT_EQ(r.git_sha, m.git_sha);
  EXPECT_EQ(r.dram, m.dram);
  EXPECT_EQ(r.seed_regime, m.seed_regime);
  EXPECT_EQ(r.threads, m.threads);
  EXPECT_EQ(r.host, m.host);
  EXPECT_EQ(r.host_cpus, m.host_cpus);
  EXPECT_EQ(r.started_utc, m.started_utc);
  EXPECT_EQ(r.finished_utc, m.finished_utc);
  EXPECT_DOUBLE_EQ(r.wall_seconds, m.wall_seconds);
  EXPECT_EQ(r.peak_rss_bytes, m.peak_rss_bytes);
  EXPECT_EQ(r.status, m.status);
  EXPECT_EQ(r.exit_code, m.exit_code);
  EXPECT_EQ(r.resumed, m.resumed);
  EXPECT_EQ(r.extra, m.extra);
}

TEST(Manifest, RunningManifestSerializesNullFinishTime) {
  Manifest m;
  m.tool = "t";
  const runner::Json doc = to_json(m);
  EXPECT_TRUE(doc.at("finished_utc").is_null());
  EXPECT_EQ(doc.at("status").as_string(), "running");
  const Manifest r = manifest_from_json(doc);
  EXPECT_TRUE(r.finished_utc.empty());
}

TEST(Manifest, NoteExitCodeMarksFailure) {
  manifest() = Manifest{};
  note_exit_code(3);
  EXPECT_EQ(manifest().status, "failed");
  EXPECT_EQ(manifest().exit_code, 3);
  manifest() = Manifest{};
  note_exit_code(0);  // success does not flip the status
  EXPECT_EQ(manifest().status, "running");
  manifest() = Manifest{};
}

// A killed-and-rerun Monte Carlo must surface `resumed: true` in the
// global manifest: the first run records chunks into a checkpoint, the
// second restores them and calls note_resumed().
TEST(Manifest, McCheckpointResumeSetsResumedFlag) {
  const std::string ckpt = ::testing::TempDir() + "/obs_resume.mcchk";
  std::remove(ckpt.c_str());
  manifest() = Manifest{};

  faults::McOptions opts;
  opts.threads = 1;
  opts.chunk_size = 4;
  opts.checkpoint_path = ckpt;
  const auto fn = [](unsigned index, Rng&, double* fields) {
    fields[0] = static_cast<double>(index);
  };
  double sum1 = 0.0, sum2 = 0.0;

  const auto info1 = faults::mc_run(
      16, 42, 1, "obs_resume", opts, fn,
      [&](unsigned, const double* f) { sum1 += f[0]; });
  EXPECT_EQ(info1.chunks_loaded, 0u);
  EXPECT_FALSE(manifest().resumed) << "fresh run must not mark resumed";

  const auto info2 = faults::mc_run(
      16, 42, 1, "obs_resume", opts, fn,
      [&](unsigned, const double* f) { sum2 += f[0]; });
  EXPECT_EQ(info2.chunks_loaded, info2.chunks_merged);
  EXPECT_DOUBLE_EQ(sum1, sum2);
  EXPECT_TRUE(manifest().resumed);

  manifest() = Manifest{};
  std::remove(ckpt.c_str());
}

// ---------------------------------------------------------------------------
// OpenMetrics exporter

TEST(OpenMetrics, RendersCountersDistributionsAndHistograms) {
  stats::Registry reg;
  reg.counter("dram.ch0.acts")->inc(42);
  reg.accum("energy.total_pj")->add(1.5);
  reg.distribution("mc.chunk_seconds")->add(2.0);
  reg.distribution("mc.chunk_seconds")->add(4.0);
  stats::Histogram* h = reg.histogram("lat.read", 0.0, 100.0, 4);
  h->add(10.0);
  h->add(30.0);
  h->add(999.0);  // clamps into the top bin

  const std::string text = to_openmetrics(reg, {{"bench", "obs_test"}});
  EXPECT_NE(text.find("# TYPE eccsim_dram_ch0_acts counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("eccsim_dram_ch0_acts_total{bench=\"obs_test\"} 42\n"),
            std::string::npos);
  EXPECT_NE(text.find("eccsim_energy_total_pj_total{bench=\"obs_test\"} "
                      "1.5\n"),
            std::string::npos);
  EXPECT_NE(text.find("eccsim_mc_chunk_seconds_count{bench=\"obs_test\"} "
                      "2\n"),
            std::string::npos);
  EXPECT_NE(text.find("eccsim_mc_chunk_seconds_sum{bench=\"obs_test\"} 6\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE eccsim_lat_read histogram\n"),
            std::string::npos);
  EXPECT_NE(
      text.find("eccsim_lat_read_bucket{bench=\"obs_test\",le=\"25\"} 1\n"),
      std::string::npos);
  // The top bin clamps overflow, so its upper bound is +Inf and the
  // cumulative count includes the out-of-range sample.
  EXPECT_NE(
      text.find("eccsim_lat_read_bucket{bench=\"obs_test\",le=\"+Inf\"} 3\n"),
      std::string::npos);
  EXPECT_NE(text.find("eccsim_lat_read_count{bench=\"obs_test\"} 3\n"),
            std::string::npos);
  // Mandatory terminator, exactly at the end.
  ASSERT_GE(text.size(), 6u);
  EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");
}

TEST(OpenMetrics, EscapesLabelValuesAndWorksWithoutLabels) {
  stats::Registry reg;
  reg.counter("c")->inc();
  const std::string text =
      to_openmetrics(reg, {{"path", "a\"b\\c\nd"}});
  EXPECT_NE(text.find("path=\"a\\\"b\\\\c\\nd\""), std::string::npos);
  const std::string bare = to_openmetrics(reg);
  EXPECT_NE(bare.find("eccsim_c_total 1\n"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Perf history

perf::Record make_record(const std::string& sha, double seconds,
                         const std::string& host = "hostA",
                         bool smoke = true, unsigned threads = 8) {
  perf::Record r;
  r.git_sha = sha;
  r.timestamp_utc = "2026-08-09T00:00:00Z";
  r.host = host;
  r.threads = threads;
  r.smoke = smoke;
  r.metrics = {{"wall_seconds", seconds}};
  return r;
}

TEST(PerfHistory, AppendLoadRoundTripAndTrim) {
  const std::string path = ::testing::TempDir() + "/obs_hist.json";
  std::remove(path.c_str());
  EXPECT_TRUE(perf::load_history(path, "demo").records.empty());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(perf::append_record(
        path, "demo", make_record("sha" + std::to_string(i), 1.0 + i),
        /*max_records=*/3));
  }
  const perf::History h = perf::load_history(path, "demo");
  EXPECT_EQ(h.bench, "demo");
  ASSERT_EQ(h.records.size(), 3u);  // trimmed to the newest 3
  EXPECT_EQ(h.records.front().git_sha, "sha2");
  EXPECT_EQ(h.records.back().git_sha, "sha4");
  EXPECT_DOUBLE_EQ(h.records.back().metrics[0].second, 5.0);
  EXPECT_EQ(h.records.back().threads, 8u);
  EXPECT_TRUE(h.records.back().smoke);
  std::remove(path.c_str());
}

TEST(PerfHistory, CompareFlagsRegressionOverThreshold) {
  perf::History h;
  h.bench = "demo";
  h.records = {make_record("a", 1.00), make_record("b", 1.02),
               make_record("c", 0.98), make_record("d", 1.20)};
  const auto result = perf::compare(h, 0.15, 10);
  ASSERT_TRUE(result.comparable);
  EXPECT_TRUE(result.regressed);
  ASSERT_EQ(result.metrics.size(), 1u);
  EXPECT_DOUBLE_EQ(result.metrics[0].baseline, 1.00);  // median of 3
  EXPECT_DOUBLE_EQ(result.metrics[0].current, 1.20);
  EXPECT_TRUE(result.metrics[0].regressed);
}

TEST(PerfHistory, CompareAcceptsSlowdownUnderThreshold) {
  perf::History h;
  h.bench = "demo";
  h.records = {make_record("a", 1.00), make_record("b", 1.00),
               make_record("c", 1.10)};
  const auto result = perf::compare(h, 0.15, 10);
  ASSERT_TRUE(result.comparable);
  EXPECT_FALSE(result.regressed);
}

TEST(PerfHistory, CompareIgnoresRecordsFromOtherContexts) {
  perf::History h;
  h.bench = "demo";
  // Priors from a different host / thread count / fidelity: none match.
  h.records = {make_record("a", 1.00, "hostB"),
               make_record("b", 1.00, "hostA", false),
               make_record("c", 1.00, "hostA", true, 4),
               make_record("d", 9.99)};
  const auto result = perf::compare(h, 0.15, 10);
  EXPECT_FALSE(result.comparable);
  EXPECT_FALSE(result.regressed);
}

TEST(PerfHistory, CompareNeedsMinSamplesBeforeGating) {
  perf::History h;
  h.bench = "demo";
  h.records = {make_record("a", 1.00), make_record("b", 5.00)};
  // One prior sample: reported, but not gated (noise guard).
  const auto result = perf::compare(h, 0.15, 10, /*min_samples=*/2);
  ASSERT_TRUE(result.comparable);
  EXPECT_FALSE(result.regressed);
  ASSERT_EQ(result.metrics.size(), 1u);
  EXPECT_EQ(result.metrics[0].samples, 1u);
  // With the guard lowered it gates.
  EXPECT_TRUE(perf::compare(h, 0.15, 10, 1).regressed);
}

TEST(PerfHistory, CompareSkipsMetricsAbsentFromBaseline) {
  perf::History h;
  h.bench = "demo";
  auto old1 = make_record("a", 1.0);
  auto old2 = make_record("b", 1.0);
  auto cur = make_record("c", 1.0);
  cur.metrics.emplace_back("new_metric", 99.0);
  h.records = {old1, old2, cur};
  const auto result = perf::compare(h, 0.15, 10);
  ASSERT_TRUE(result.comparable);
  EXPECT_FALSE(result.regressed);
  ASSERT_EQ(result.metrics.size(), 1u);  // new_metric skipped
  EXPECT_EQ(result.metrics[0].name, "wall_seconds");
}

TEST(PerfHistory, CompareWindowLimitsBaseline) {
  perf::History h;
  h.bench = "demo";
  // Ancient fast records would dominate an unwindowed median.
  for (int i = 0; i < 10; ++i) {
    h.records.push_back(make_record("old", 0.1));
  }
  for (int i = 0; i < 4; ++i) {
    h.records.push_back(make_record("recent", 1.0));
  }
  h.records.push_back(make_record("cur", 1.05));
  const auto result = perf::compare(h, 0.15, /*window=*/4);
  ASSERT_TRUE(result.comparable);
  EXPECT_EQ(result.metrics[0].samples, 4u);
  EXPECT_DOUBLE_EQ(result.metrics[0].baseline, 1.0);
  EXPECT_FALSE(result.regressed);
}

// ---------------------------------------------------------------------------
// run_info

TEST(RunInfo, BasicSanity) {
  EXPECT_GE(cpu_count(), 1u);
  EXPECT_FALSE(hostname().empty());
  const std::string ts = utc_timestamp();
  EXPECT_EQ(ts.size(), 20u);  // 2026-08-09T01:02:03Z
  EXPECT_EQ(ts.back(), 'Z');
  const double t0 = monotonic_seconds();
  const double t1 = monotonic_seconds();
  EXPECT_GE(t1, t0);
  // Running from the build tree inside the repo: a real SHA, not
  // "unknown" (40 hex chars).
  const std::string sha = git_head_sha();
  EXPECT_FALSE(sha.empty());
}

}  // namespace
}  // namespace eccsim::obs
