// Tests for the experiment runner (src/runner): parallel_for executes
// every index exactly once, substream seeds are stable, and the JSON
// writer and a sweep report round-trip with all cells intact.  The sweep's
// own fan-out is tested through bench::sweep in bench_flags_test.
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "runner/json.hpp"
#include "runner/runner.hpp"
#include "runner/thread_pool.hpp"

namespace eccsim::runner {
namespace {

// --- parallel_for ----------------------------------------------------------

TEST(ParallelForTest, RunsEveryTaskExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(hits.size(), 4, [&hits](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, DefaultThreadCountHonorsEnvironment) {
  setenv("RUNNER_THREADS", "3", 1);
  EXPECT_EQ(default_thread_count(), 3u);
  setenv("RUNNER_THREADS", "0", 1);  // invalid: fall back to hardware
  EXPECT_GE(default_thread_count(), 1u);
  unsetenv("RUNNER_THREADS");
  EXPECT_GE(default_thread_count(), 1u);
}

TEST(RunnerTest, SubstreamSeedsAreStableAndDistinct) {
  EXPECT_EQ(substream_seed(1, 0), substream_seed(1, 0));
  EXPECT_NE(substream_seed(1, 0), substream_seed(1, 1));
  EXPECT_NE(substream_seed(1, 0), substream_seed(2, 0));
}

// --- Json ------------------------------------------------------------------

TEST(JsonTest, ScalarRoundTrip) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("true").as_bool(), true);
  EXPECT_EQ(Json::parse("-12.5e2").as_number(), -1250.0);
  EXPECT_EQ(Json::parse("\"a\\n\\\"b\\\"\"").as_string(), "a\n\"b\"");
}

TEST(JsonTest, DoublesRoundTripExactly) {
  const double values[] = {0.123456789012345678, 1e-300, 3.0,
                           1234567890.5, -0.0625};
  for (const double v : values) {
    EXPECT_EQ(Json::parse(Json(v).dump()).as_number(), v);
  }
}

TEST(JsonTest, StructuredRoundTripPreservesOrderAndValues) {
  Json obj = Json::object();
  obj.set("name", "sweep");
  obj.set("count", 128);
  obj.set("enabled", true);
  Json arr = Json::array();
  for (int i = 0; i < 3; ++i) arr.push_back(i * 1.5);
  obj.set("values", arr);
  const Json back = Json::parse(obj.dump());
  EXPECT_EQ(back.dump(), obj.dump());
  EXPECT_EQ(back.members()[0].first, "name");
  EXPECT_EQ(back.members()[3].first, "values");
  EXPECT_EQ(back.at("values").items()[2].as_number(), 3.0);
}

TEST(JsonTest, NonFiniteNumbersSerializeAsNull) {
  // IEEE non-finite values have no JSON representation; emitting "inf" or
  // "nan" would make every downstream parser choke.  The writer degrades
  // them to null (the MtbfResult "no data" NaN sentinel relies on this).
  EXPECT_EQ(Json(std::numeric_limits<double>::quiet_NaN()).dump(), "null");
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(), "null");
  EXPECT_EQ(Json(-std::numeric_limits<double>::infinity()).dump(), "null");
  Json obj = Json::object();
  obj.set("mtbf", std::numeric_limits<double>::quiet_NaN());
  EXPECT_TRUE(Json::parse(obj.dump()).at("mtbf").is_null());
}

TEST(JsonTest, ParseRejectsMalformedInput) {
  EXPECT_THROW(Json::parse("{"), std::runtime_error);
  EXPECT_THROW(Json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW(Json::parse("tru"), std::runtime_error);
  EXPECT_THROW(Json::parse("1 2"), std::runtime_error);
  EXPECT_THROW(Json::parse("\"unterminated"), std::runtime_error);
}

TEST(JsonTest, EscapesEveryControlCharacter) {
  // Every byte below 0x20 must be escaped -- a raw control character in
  // the output is invalid JSON (stats paths and workload names flow
  // through here unsanitized).
  for (int c = 0; c < 0x20; ++c) {
    const std::string s(1, static_cast<char>(c));
    const std::string text = Json(s).dump();
    for (char ch : text) {
      EXPECT_GE(static_cast<unsigned char>(ch), 0x20u)
          << "raw control byte " << c << " leaked into: " << text;
    }
    EXPECT_EQ(Json::parse(text).as_string(), s) << "control byte " << c;
  }
}

TEST(JsonTest, RandomStringsRoundTripExactly) {
  // Fuzz dump->parse over random byte strings drawn from the full
  // 7-bit range plus control characters (multi-byte UTF-8 passes through
  // untouched, so bytes < 0x80 are the interesting surface).
  eccsim::Rng rng(0xfadedfacadeULL);
  for (int iter = 0; iter < 500; ++iter) {
    std::string s;
    const std::uint64_t len = rng.next_below(40);
    for (std::uint64_t i = 0; i < len; ++i) {
      s.push_back(static_cast<char>(rng.next_below(0x80)));
    }
    const Json back = Json::parse(Json(s).dump());
    EXPECT_EQ(back.as_string(), s) << "iteration " << iter;
  }
}

// --- Report JSON -----------------------------------------------------------

TEST(ReportJsonTest, RoundTripCarriesAllCells) {
  // A hand-built report: 32 cells of RNG-drawn metrics, as a 4-thread
  // fan-out would file them.
  Report report;
  report.threads = 4;
  report.wall_seconds = 1.5;
  report.cell_seconds = 5.25;
  Rng rng(7);
  for (int i = 0; i < 32; ++i) {
    CellResult c;
    c.result.scheme = "scheme" + std::to_string(i % 4);
    c.result.workload = "wl" + std::to_string(i / 4);
    c.result.ipc = rng.next_double();
    c.result.epi_pj = rng.next_double() * 1000;
    c.result.mem.reads = rng.next_below(1u << 30);
    c.wall_seconds = rng.next_double();
    report.cells.push_back(c);
  }

  const std::string path = "/tmp/eccsim_runner_test_report.json";
  ASSERT_TRUE(write_json(path, to_json(report)));
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const Json back = Json::parse(text);

  ASSERT_EQ(back.at("cells").size(), report.cells.size());
  EXPECT_EQ(back.at("threads").as_number(), 4.0);
  EXPECT_EQ(back.at("wall_seconds").as_number(), 1.5);
  EXPECT_EQ(back.at("cell_seconds").as_number(), 5.25);
  EXPECT_EQ(back.at("speedup").as_number(), 3.5);
  for (std::size_t i = 0; i < report.cells.size(); ++i) {
    const Json& c = back.at("cells").items()[i];
    EXPECT_EQ(c.at("scheme").as_string(), report.cells[i].result.scheme);
    EXPECT_EQ(c.at("workload").as_string(),
              report.cells[i].result.workload);
    EXPECT_EQ(c.at("ipc").as_number(), report.cells[i].result.ipc);
    EXPECT_EQ(c.at("epi_pj").as_number(), report.cells[i].result.epi_pj);
    EXPECT_EQ(c.at("traffic").at("reads").as_number(),
              static_cast<double>(report.cells[i].result.mem.reads));
    EXPECT_EQ(c.at("wall_seconds").as_number(), report.cells[i].wall_seconds);
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace eccsim::runner
