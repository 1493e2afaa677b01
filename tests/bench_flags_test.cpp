// The shared bench front-end's run config: init() layers the flags over
// the environment into one RunConfig and never writes the environment
// back.  Unknown flags and malformed values must exit with code 2 (and
// unknown flags point at --help); --help and --list-workloads must
// succeed; an output that cannot be written fails the run.  Death tests: init() mutates process-global state and
// terminates the process on these paths, so every case runs in a child.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <regex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "runner/json.hpp"

namespace eccsim::bench {
namespace {

using Env = std::vector<std::pair<const char*, const char*>>;

/// Every variable the run config reads, cleared before each case so the
/// outer environment cannot leak in.
constexpr const char* kBenchVars[] = {
    "ECCSIM_STATS",      "STATS_EPOCH",          "STATS_TRACE",
    "STATS_TRACE_LIMIT", "ECCSIM_QUICK",         "ECCSIM_SMOKE",
    "ECCSIM_DRAM",       "ECCSIM_MC_SYSTEMS",    "ECCSIM_MC_CHUNK",
    "ECCSIM_MC_TARGET_REL_CI", "ECCSIM_MC_CHECKPOINT", "ECCSIM_TRACE_IN",
    "ECCSIM_TRACE_OUT",  "ECCSIM_TRACE_POINT",   "ECCSIM_STATUS",
    "ECCSIM_PROGRESS",   "ECCSIM_STATUS_INTERVAL_MS"};

void run_init(const Env& env, std::vector<std::string> args) {
  for (const char* var : kBenchVars) unsetenv(var);
  for (const auto& [var, value] : env) setenv(var, value, 1);
  args.insert(args.begin(), "bench_flags_test");
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (auto& a : args) argv.push_back(a.data());
  init(static_cast<int>(argv.size()), argv.data());
}

/// init() must return normally and the resolved config satisfy `ok`.
void expect_config(const Env& env, const std::vector<std::string>& args,
                   const std::function<bool(const RunConfig&)>& ok) {
  EXPECT_EXIT(
      {
        run_init(env, args);
        std::exit(ok(run_config()) ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

using BenchFlagsDeathTest = ::testing::Test;

TEST(BenchFlagsDeathTest, UnknownFlagExitsWithUsageError) {
  EXPECT_EXIT(run_init({}, {"--bogus"}), ::testing::ExitedWithCode(2),
              "unknown flag '--bogus'.*--help");
}

TEST(BenchFlagsDeathTest, UnknownFlagAfterValidFlagStillRejected) {
  EXPECT_EXIT(run_init({}, {"--smoke", "--no-such-thing"}),
              ::testing::ExitedWithCode(2), "unknown flag");
}

TEST(BenchFlagsDeathTest, HelpExitsCleanly) {
  EXPECT_EXIT(run_init({}, {"--help"}), ::testing::ExitedWithCode(0), "");
}

TEST(BenchFlagsDeathTest, ListWorkloadsExitsCleanly) {
  EXPECT_EXIT(run_init({}, {"--list-workloads"}),
              ::testing::ExitedWithCode(0), "");
}

TEST(BenchFlagsDeathTest, MissingFlagValueRejected) {
  EXPECT_EXIT(run_init({}, {"--mc-systems"}), ::testing::ExitedWithCode(2),
              "requires a value");
  EXPECT_EXIT(run_init({}, {"--dram"}), ::testing::ExitedWithCode(2),
              "requires a value");
  EXPECT_EXIT(run_init({}, {"--status"}), ::testing::ExitedWithCode(2),
              "requires a value");
}

TEST(BenchFlagsDeathTest, BadTracePointRejected) {
  EXPECT_EXIT(run_init({}, {"--trace-point", "sideways"}),
              ::testing::ExitedWithCode(2), "'pre' or 'post'");
  EXPECT_EXIT(run_init({{"ECCSIM_TRACE_POINT", "sideways"}}, {}),
              ::testing::ExitedWithCode(2), "'pre' or 'post'");
}

TEST(BenchFlagsDeathTest, UnknownDramGenerationRejected) {
  EXPECT_EXIT(run_init({}, {"--dram", "ddr6"}), ::testing::ExitedWithCode(2),
              "--dram must be ddr3, ddr4, or ddr5, got 'ddr6'");
}

TEST(BenchFlagsDeathTest, BadEnvDramGenerationRejected) {
  // ECCSIM_DRAM typos must fail loudly, not fall back to DDR3.
  EXPECT_EXIT(run_init({{"ECCSIM_DRAM", "lpddr4"}}, {}),
              ::testing::ExitedWithCode(2),
              "ECCSIM_DRAM must be ddr3, ddr4, or ddr5, got 'lpddr4'");
}

TEST(BenchFlagsDeathTest, MalformedNumericFlagsRejected) {
  // A value that does not fully parse is a usage error, never a silent
  // fallback to the default.
  EXPECT_EXIT(run_init({}, {"--mc-systems=abc"}),
              ::testing::ExitedWithCode(2),
              "--mc-systems must be a non-negative integer, got 'abc'");
  EXPECT_EXIT(run_init({}, {"--mc-systems", "-5"}),
              ::testing::ExitedWithCode(2), "--mc-systems must be");
  EXPECT_EXIT(run_init({}, {"--mc-systems=99999999999"}),
              ::testing::ExitedWithCode(2), "--mc-systems must be");
  EXPECT_EXIT(run_init({}, {"--mc-chunk=16k"}), ::testing::ExitedWithCode(2),
              "--mc-chunk must be a non-negative integer, got '16k'");
  EXPECT_EXIT(run_init({}, {"--stats-epoch=12x"}),
              ::testing::ExitedWithCode(2),
              "--stats-epoch must be a non-negative integer, got '12x'");
  EXPECT_EXIT(run_init({}, {"--stats-epoch="}), ::testing::ExitedWithCode(2),
              "--stats-epoch must be");
  EXPECT_EXIT(run_init({}, {"--mc-target-rel-ci=foo"}),
              ::testing::ExitedWithCode(2),
              "--mc-target-rel-ci must be a non-negative number, got 'foo'");
  EXPECT_EXIT(run_init({}, {"--mc-target-rel-ci", "0.05x"}),
              ::testing::ExitedWithCode(2), "--mc-target-rel-ci must be");
}

TEST(BenchFlagsDeathTest, MalformedNumericEnvironmentRejected) {
  const std::pair<const char*, const char*> bad[] = {
      {"ECCSIM_MC_SYSTEMS", "abc"},      {"ECCSIM_MC_CHUNK", " 8"},
      {"STATS_EPOCH", "12x"},            {"ECCSIM_MC_TARGET_REL_CI", "foo"},
      {"STATS_TRACE_LIMIT", "1e6"},      {"ECCSIM_STATUS_INTERVAL_MS", "-1"},
  };
  for (const auto& [var, value] : bad) {
    EXPECT_EXIT(run_init({{var, value}}, {}), ::testing::ExitedWithCode(2),
                std::string(var) + " must be a non-negative .*, got '" +
                    value + "'")
        << var << "=" << value;
  }
}

TEST(BenchFlagsDeathTest, WellFormedNumbersAccepted) {
  expect_config({{"STATS_TRACE_LIMIT", "0"}},
                {"--mc-systems=0", "--mc-chunk", "7", "--stats-epoch=3",
                 "--mc-target-rel-ci=1e-2"},
                [](const RunConfig& c) {
                  return c.mc_systems == 0 && c.mc.chunk_size == 7 &&
                         c.stats.epoch_cycles == 3 &&
                         c.mc.target_rel_ci == 0.01 &&
                         c.stats.trace_limit == 0;
                });
}

TEST(BenchFlagsDeathTest, DramGenerationsAccepted) {
  expect_config({}, {}, [](const RunConfig& c) {
    return c.dram == dram::Generation::kDdr3 &&
           dram_generation() == dram::Generation::kDdr3;
  });
  expect_config({}, {"--dram=ddr5"}, [](const RunConfig& c) {
    return c.dram == dram::Generation::kDdr5;
  });
  expect_config({}, {"--dram", "ddr4"}, [](const RunConfig& c) {
    return c.dram == dram::Generation::kDdr4 &&
           sim_options().dram_gen == dram::Generation::kDdr4;
  });
}

TEST(BenchFlagsDeathTest, FlagsNeverWriteTheEnvironment) {
  // The config holds what the flags said; the environment stays as the
  // caller left it, so no library can pick a flag back up from it.
  expect_config({}, {"--dram=ddr5", "--status", "F", "--progress"},
                [](const RunConfig& c) {
                  return std::getenv("ECCSIM_DRAM") == nullptr &&
                         std::getenv("ECCSIM_STATUS") == nullptr &&
                         std::getenv("ECCSIM_PROGRESS") == nullptr &&
                         c.dram == dram::Generation::kDdr5 &&
                         c.heartbeat.status_path == "F" &&
                         c.heartbeat.stderr_line &&
                         obs::Heartbeat::global().config().status_path ==
                             "F";
                });
}

TEST(BenchFlagsDeathTest, EnvironmentOnlySettingsApply) {
  expect_config(
      {{"ECCSIM_DRAM", "ddr4"},
       {"ECCSIM_SMOKE", "1"},
       {"ECCSIM_MC_SYSTEMS", "300"},
       {"ECCSIM_MC_CHUNK", "32"},
       {"ECCSIM_MC_TARGET_REL_CI", "0.05"},
       {"ECCSIM_MC_CHECKPOINT", "ck.txt"},
       {"ECCSIM_TRACE_IN", "in"},
       {"ECCSIM_TRACE_OUT", "out"},
       {"ECCSIM_TRACE_POINT", "post"},
       {"ECCSIM_STATUS", "s.json"},
       {"ECCSIM_PROGRESS", "1"},
       {"ECCSIM_STATUS_INTERVAL_MS", "0"}},
      {}, [](const RunConfig& c) {
        return c.dram == dram::Generation::kDdr4 &&
               c.fidelity == RunConfig::Fidelity::kSmoke &&
               target_instructions() == 50'000 && mc_systems(100'000) == 300 &&
               mc_options().chunk_size == 32 &&
               mc_options().target_rel_ci == 0.05 &&
               mc_options().checkpoint_path == "ck.txt" &&
               c.trace_in == "in" && c.trace_out == "out" &&
               c.trace_point == tracefile::CapturePoint::kPostLlc &&
               c.heartbeat.status_path == "s.json" &&
               c.heartbeat.stderr_line && c.heartbeat.min_interval_ms == 0;
      });
  // Both fidelity variables set: smoke wins, as it always has.
  expect_config({{"ECCSIM_QUICK", "1"}, {"ECCSIM_SMOKE", "1"}}, {},
                [](const RunConfig& c) {
                  return c.fidelity == RunConfig::Fidelity::kSmoke;
                });
  // "0" means off; an empty variable means unset.
  expect_config({{"ECCSIM_SMOKE", "0"}, {"ECCSIM_PROGRESS", "0"},
                 {"ECCSIM_DRAM", ""}},
                {}, [](const RunConfig& c) {
                  return c.dram == dram::Generation::kDdr3 &&
                         c.fidelity == RunConfig::Fidelity::kFull &&
                         !c.heartbeat.stderr_line &&
                         mc_systems(100'000) == 100'000;
                });
}

TEST(BenchFlagsDeathTest, FlagOverridesEnvironment) {
  expect_config({{"ECCSIM_DRAM", "ddr4"}, {"ECCSIM_STATUS", "env.json"}},
                {"--dram", "ddr5", "--status=flag.json"},
                [](const RunConfig& c) {
                  return c.dram == dram::Generation::kDdr5 &&
                         c.heartbeat.status_path == "flag.json";
                });
  expect_config({{"ECCSIM_SMOKE", "1"}, {"ECCSIM_MC_SYSTEMS", "300"}},
                {"--quick", "--mc-systems", "400"}, [](const RunConfig& c) {
                  return c.fidelity == RunConfig::Fidelity::kQuick &&
                         target_instructions() == 200'000 &&
                         mc_systems(100'000) == 400;
                });
}

TEST(BenchFlagsDeathTest, StatsSettingsFromEnvironment) {
  expect_config({{"ECCSIM_STATS", "1"},
                 {"STATS_EPOCH", "1234"},
                 {"STATS_TRACE", "/tmp/tdir"},
                 {"STATS_TRACE_LIMIT", "77"}},
                {}, [](const RunConfig& c) {
                  return c.stats.enabled && c.stats.epoch_cycles == 1234 &&
                         c.stats.trace_dir == "/tmp/tdir" &&
                         c.stats.trace_limit == 77;
                });
  // STATS_TRACE alone implies stats (tracing is useless otherwise).
  expect_config({{"STATS_TRACE", "/tmp/tdir"}}, {}, [](const RunConfig& c) {
    return c.stats.enabled;
  });
  // Off by default; the epoch default follows the fidelity.
  expect_config({}, {}, [](const RunConfig& c) {
    return !c.stats.enabled && c.stats.epoch_cycles == 10'000 &&
           c.stats.trace_limit == 200'000 && new_collector("w", "s") == nullptr;
  });
  expect_config({}, {"--smoke"}, [](const RunConfig& c) {
    return !c.stats.enabled && c.stats.epoch_cycles == 500;
  });
}

TEST(BenchFlagsDeathTest, StatsFlags) {
  expect_config({}, {"--stats-epoch=2000"}, [](const RunConfig& c) {
    return c.stats.enabled && c.stats.epoch_cycles == 2000;
  });
  expect_config({}, {"--trace=tdir"}, [](const RunConfig& c) {
    return c.stats.enabled && c.stats.trace_dir == "tdir";
  });
  expect_config({{"ECCSIM_STATS", "0"}}, {"--stats"}, [](const RunConfig& c) {
    return c.stats.enabled;
  });
}

TEST(BenchFlagsDeathTest, TracePointValuesAccepted) {
  expect_config({}, {"--trace-point", "post"}, [](const RunConfig& c) {
    return c.trace_point == tracefile::CapturePoint::kPostLlc;
  });
  expect_config({}, {"--trace-point=pre"}, [](const RunConfig& c) {
    return c.trace_point == tracefile::CapturePoint::kPreLlc;
  });
}

TEST(BenchFlagsDeathTest, ManifestStampsWholeConfig) {
  // init() writes results/quick/<bench>.manifest.json at startup; its
  // `extra` labels must name every RunConfig field and the GF kernel.
  expect_config({{"ECCSIM_MC_CHUNK", "16"}}, {"--quick", "--trace-out=o"},
                [](const RunConfig&) {
                  std::ifstream in(
                      "results/quick/bench_flags_test.manifest.json");
                  std::stringstream text;
                  text << in.rdbuf();
                  const runner::Json extra =
                      runner::Json::parse(text.str()).at("extra");
                  for (const char* key :
                       {"fidelity", "dram", "stats", "stats_epoch",
                        "stats_trace", "stats_trace_limit", "trace_in",
                        "trace_out", "trace_point", "mc_systems", "mc_chunk",
                        "mc_target_rel_ci", "mc_checkpoint", "status",
                        "progress", "status_interval_ms", "kernel",
                        "kernel_override", "kernels_available",
                        "kernel_simd_avx2"}) {
                    if (!extra.contains(key)) return false;
                  }
                  const std::string avail =
                      extra.at("kernels_available").as_string();
                  return avail.rfind("scalar", 0) == 0 &&
                         avail.find(extra.at("kernel").as_string()) !=
                             std::string::npos &&
                         extra.at("fidelity").as_string() == "quick" &&
                         extra.at("mc_chunk").as_string() == "16" &&
                         extra.at("trace_out").as_string() == "o";
                });
}

TEST(BenchFlagsDeathTest, LostOutputFailsTheRun) {
  // bench_results is an ordinary file, so no CSV can be written under it.
  // The run must name the path and exit 1, and its manifest must say so.
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "bench_flags_lost";
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::ofstream(dir / "bench_results") << "not a directory\n";
  EXPECT_EXIT(
      {
        fs::current_path(dir);
        run_init({}, {"--smoke"});
        Table t({"k", "v"});
        t.add_row({"a", "1"});
        emit("lost", t);
        std::exit(0);
      },
      ::testing::ExitedWithCode(1),
      "could not write bench_results/smoke/lost.csv");
  std::ifstream in(dir / "results/smoke/bench_flags_test.manifest.json");
  std::stringstream text;
  text << in.rdbuf();
  const runner::Json m = runner::Json::parse(text.str());
  EXPECT_EQ(m.at("status").as_string(), "failed");
  EXPECT_EQ(m.at("exit_code").as_number(), 1.0);
  fs::remove_all(dir);
}

/// Runs the smoke quad sweep with stderr sent to a file and reports
/// whether that file holds exactly the two fan-out summary lines.
bool sweep_prints_only_summaries() {
  run_init({}, {"--smoke"});
  const char* path = "progress.txt";
  if (std::freopen(path, "w", stderr) == nullptr) return false;
  (void)sweep(ecc::SystemScale::kQuadEquivalent);
  std::fflush(stderr);
  std::ifstream in(path);
  std::string warm;
  std::string cells;
  std::string rest;
  std::getline(in, warm);
  std::getline(in, cells);
  const bool more = static_cast<bool>(std::getline(in, rest));
  const std::regex warm_line(R"(^\[warm-up quad\] \d+ cells, )");
  const std::regex cells_line(R"(^\[sweep quad\] \d+ cells, )");
  return std::regex_search(warm, warm_line) &&
         std::regex_search(cells, cells_line) &&
         warm.find('\r') == std::string::npos &&
         cells.find('\r') == std::string::npos && !more;
}

TEST(BenchFlagsDeathTest, ProgressLineOnlyOnTerminal) {
  // Under ctest stderr is a pipe, not a terminal: each of a sweep's two
  // fan-outs (the LLC warm-up, then the cells) must print only its summary
  // line, with no carriage return and no per-cell line.
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "bench_flags_progress";
  fs::remove_all(dir);
  fs::create_directories(dir);
  EXPECT_EXIT(
      {
        fs::current_path(dir);
        std::exit(sweep_prints_only_summaries() ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
  fs::remove_all(dir);
}

}  // namespace
}  // namespace eccsim::bench
