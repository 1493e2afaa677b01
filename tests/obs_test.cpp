// The observability layer: atomic status-file publishing (a reader must
// never observe a torn document), heartbeat sequencing/throttling, run
// manifest fields and the MC engine's resumed flag, perf-history
// append/compare semantics -- including the >15% regression gate the CI
// perf job relies on -- and the run identity (git HEAD of the source
// tree, not of the working directory).
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "faults/mc_engine.hpp"
#include "obs/heartbeat.hpp"
#include "obs/manifest.hpp"
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

TEST(Manifest, JsonCarriesEveryField) {
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
  m.extra = {{"fidelity", "smoke"}, {"kernel", "simd"}};

  // Through text, as every reader of a manifest sees it.
  const runner::Json doc = runner::Json::parse(to_json(m).dump(2));
  EXPECT_EQ(doc.at("schema").as_string(), "eccsim.manifest/1");
  EXPECT_EQ(doc.at("tool").as_string(), m.tool);
  ASSERT_EQ(doc.at("args").size(), m.args.size());
  for (std::size_t i = 0; i < m.args.size(); ++i) {
    EXPECT_EQ(doc.at("args").items()[i].as_string(), m.args[i]);
  }
  EXPECT_EQ(doc.at("git_sha").as_string(), m.git_sha);
  EXPECT_EQ(doc.at("dram").as_string(), m.dram);
  EXPECT_EQ(doc.at("seed_regime").as_string(), m.seed_regime);
  EXPECT_EQ(doc.at("threads").as_number(), 8.0);
  EXPECT_EQ(doc.at("host").as_string(), m.host);
  EXPECT_EQ(doc.at("host_cpus").as_number(), 16.0);
  EXPECT_EQ(doc.at("started_utc").as_string(), m.started_utc);
  EXPECT_EQ(doc.at("finished_utc").as_string(), m.finished_utc);
  EXPECT_DOUBLE_EQ(doc.at("wall_seconds").as_number(), m.wall_seconds);
  EXPECT_EQ(doc.at("peak_rss_bytes").as_number(), 123456789.0);
  EXPECT_EQ(doc.at("status").as_string(), m.status);
  EXPECT_EQ(doc.at("exit_code").as_number(), 0.0);
  EXPECT_TRUE(doc.at("resumed").as_bool());
  const auto& extra = doc.at("extra").members();
  ASSERT_EQ(extra.size(), m.extra.size());
  for (std::size_t i = 0; i < m.extra.size(); ++i) {
    EXPECT_EQ(extra[i].first, m.extra[i].first);
    EXPECT_EQ(extra[i].second.as_string(), m.extra[i].second);
  }
}

TEST(Manifest, RunningManifestSerializesNullFinishTime) {
  Manifest m;
  m.tool = "t";
  const runner::Json doc = to_json(m);
  EXPECT_TRUE(doc.at("finished_utc").is_null());
  EXPECT_EQ(doc.at("status").as_string(), "running");
  EXPECT_FALSE(doc.contains("extra"));
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
  // When the source tree is a checkout, its HEAD is a 40-hex SHA.
  const std::string sha = git_head_sha();
  if (!std::filesystem::is_directory(ECCSIM_SOURCE_DIR "/.git")) {
    GTEST_SKIP() << ECCSIM_SOURCE_DIR << " is not a git checkout";
  }
  ASSERT_EQ(sha.size(), 40u) << sha;
  EXPECT_EQ(sha.find_first_not_of("0123456789abcdef"), std::string::npos)
      << sha;
}

// The SHA names the commit of the sources the binary was built from: a
// working directory inside some other repository must not change it.
TEST(RunInfo, GitShaIgnoresTheWorkingDirectory) {
  namespace fs = std::filesystem;
  const std::string fake = "deadbeefdeadbeefdeadbeefdeadbeefdeadbeef";
  const fs::path repo = fs::path(::testing::TempDir()) / "obs_other_repo";
  fs::create_directories(repo / ".git");
  std::ofstream(repo / ".git" / "HEAD") << fake << "\n";
  const std::string expected = git_head_sha();
  const fs::path cwd = fs::current_path();
  fs::current_path(repo);
  const std::string seen = git_head_sha();
  fs::current_path(cwd);
  fs::remove_all(repo);
  EXPECT_NE(seen, fake);
  EXPECT_EQ(seen, expected);
}

}  // namespace
}  // namespace eccsim::obs
