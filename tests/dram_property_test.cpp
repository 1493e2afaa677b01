// Property tests for the DRAM simulator, parameterized over device width,
// rank count, and row policy: service-time lower bounds, bus-occupancy
// sanity, energy accounting closure, determinism, and open-page behavior.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "dram/channel.hpp"

namespace eccsim::dram {
namespace {

using Params = std::tuple<DeviceWidth, std::uint32_t, RowPolicy>;

class ChannelPropertyTest : public ::testing::TestWithParam<Params> {
 protected:
  ChannelConfig config() const {
    ChannelConfig cc;
    cc.device = micron_2gb(std::get<0>(GetParam()));
    cc.ranks = std::get<1>(GetParam());
    cc.chips_per_rank = 9;
    cc.row_policy = std::get<2>(GetParam());
    return cc;
  }

  /// Random request stream over the channel's ranks/banks/rows.
  std::vector<MemRequest> random_stream(unsigned count, std::uint64_t seed) {
    Rng rng(seed);
    const auto cc = config();
    std::vector<MemRequest> reqs;
    reqs.reserve(count);
    for (unsigned i = 0; i < count; ++i) {
      MemRequest r;
      r.id = i;
      r.addr.rank = static_cast<std::uint32_t>(rng.next_below(cc.ranks));
      r.addr.bank = static_cast<std::uint32_t>(rng.next_below(cc.banks));
      r.addr.row = rng.next_below(64);
      r.addr.col = static_cast<std::uint32_t>(rng.next_below(64));
      r.is_write = rng.bernoulli(0.3);
      reqs.push_back(r);
    }
    return reqs;
  }

  /// Feeds requests (respecting queue backpressure) and drains.
  std::vector<MemCompletion> run(Channel& ch,
                                 const std::vector<MemRequest>& reqs) {
    std::vector<MemCompletion> out;
    std::size_t next = 0;
    std::uint64_t now = 0;
    while ((next < reqs.size() || ch.pending() || ch.in_flight()) &&
           now < 10'000'000) {
      while (next < reqs.size() && ch.enqueue(reqs[next])) ++next;
      ch.tick(++now, out);
    }
    ch.finalize(now);
    return out;
  }
};

TEST_P(ChannelPropertyTest, AllRequestsComplete) {
  Channel ch(config());
  const auto reqs = random_stream(400, 11);
  const auto done = run(ch, reqs);
  EXPECT_EQ(done.size(), reqs.size());
}

TEST_P(ChannelPropertyTest, ServiceRateBoundedByBus) {
  // The data bus serializes bursts: total span >= count * tBurst.
  Channel ch(config());
  const auto reqs = random_stream(400, 12);
  const auto done = run(ch, reqs);
  std::uint64_t last = 0;
  for (const auto& c : done) last = std::max(last, c.finish_cycle);
  EXPECT_GE(last, 400ULL * config().device.timing.tBurst);
}

TEST_P(ChannelPropertyTest, EnergyComponentsNonNegativeAndClosed) {
  Channel ch(config());
  run(ch, random_stream(300, 13));
  const EnergyBreakdown& e = ch.stats().energy;
  EXPECT_GE(e.activate_pj, 0.0);
  EXPECT_GE(e.read_pj, 0.0);
  EXPECT_GE(e.write_pj, 0.0);
  EXPECT_GE(e.refresh_pj, 0.0);
  EXPECT_GE(e.background_pj, 0.0);
  EXPECT_NEAR(e.total_pj(),
              e.activate_pj + e.read_pj + e.write_pj + e.refresh_pj +
                  e.background_pj,
              1e-6);
}

TEST_P(ChannelPropertyTest, DeterministicReplay) {
  Channel a(config()), b(config());
  const auto reqs = random_stream(200, 14);
  const auto da = run(a, reqs);
  const auto db = run(b, reqs);
  ASSERT_EQ(da.size(), db.size());
  for (std::size_t i = 0; i < da.size(); ++i) {
    EXPECT_EQ(da[i].id, db[i].id);
    EXPECT_EQ(da[i].finish_cycle, db[i].finish_cycle);
  }
  EXPECT_DOUBLE_EQ(a.stats().energy.total_pj(), b.stats().energy.total_pj());
}

TEST_P(ChannelPropertyTest, ReadCountsMatchStream) {
  Channel ch(config());
  const auto reqs = random_stream(250, 15);
  unsigned reads = 0;
  for (const auto& r : reqs) reads += !r.is_write;
  run(ch, reqs);
  EXPECT_EQ(ch.stats().reads, reads);
  EXPECT_EQ(ch.stats().writes, reqs.size() - reads);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ChannelPropertyTest,
    ::testing::Combine(
        ::testing::Values(DeviceWidth::kX4, DeviceWidth::kX8,
                          DeviceWidth::kX16),
        ::testing::Values(1u, 2u, 4u),
        ::testing::Values(RowPolicy::kClosePage, RowPolicy::kOpenPage)),
    [](const ::testing::TestParamInfo<Params>& info) {
      return to_string(std::get<0>(info.param)) + "_r" +
             std::to_string(std::get<1>(info.param)) + "_" +
             (std::get<2>(info.param) == RowPolicy::kClosePage ? "close"
                                                               : "open");
    });

// ---------------------------------------------------------------------------
// Open-page specific behavior.

TEST(OpenPage, RowHitsSkipActivation) {
  ChannelConfig cc;
  cc.device = micron_2gb(DeviceWidth::kX8);
  cc.ranks = 1;
  cc.chips_per_rank = 9;
  cc.row_policy = RowPolicy::kOpenPage;
  Channel ch(cc);
  // 16 reads to the same row, different columns.
  for (unsigned i = 0; i < 16; ++i) {
    MemRequest r;
    r.id = i;
    r.addr = DramAddress{0, 0, 0, 5, i};
    ASSERT_TRUE(ch.enqueue(r));
  }
  std::vector<MemCompletion> out;
  std::uint64_t now = 0;
  while ((ch.pending() || ch.in_flight()) && now < 100000) ch.tick(++now, out);
  EXPECT_EQ(out.size(), 16u);
  EXPECT_GE(ch.row_hits(), 15u);  // everything after the first is a hit
  // Activate energy: exactly one ACT's worth.
  const double one_act = cc.device.energy.act_pj * cc.chips_per_rank;
  EXPECT_NEAR(ch.stats().energy.activate_pj, one_act, one_act * 0.01);
}

TEST(OpenPage, RowHitsAreFasterThanClosePage) {
  auto run_policy = [](RowPolicy policy) {
    ChannelConfig cc;
    cc.device = micron_2gb(DeviceWidth::kX8);
    cc.ranks = 1;
    cc.chips_per_rank = 9;
    cc.row_policy = policy;
    Channel ch(cc);
    for (unsigned i = 0; i < 32; ++i) {
      MemRequest r;
      r.id = i;
      r.addr = DramAddress{0, 0, 0, 9, i};
      ch.enqueue(r);
    }
    std::vector<MemCompletion> out;
    std::uint64_t now = 0;
    while ((ch.pending() || ch.in_flight()) && now < 100000) {
      ch.tick(++now, out);
    }
    std::uint64_t last = 0;
    for (const auto& c : out) last = std::max(last, c.finish_cycle);
    return last;
  };
  EXPECT_LT(run_policy(RowPolicy::kOpenPage),
            run_policy(RowPolicy::kClosePage));
}

TEST(OpenPage, ConflictPrechargesAndReopens) {
  ChannelConfig cc;
  cc.device = micron_2gb(DeviceWidth::kX8);
  cc.ranks = 1;
  cc.chips_per_rank = 9;
  cc.row_policy = RowPolicy::kOpenPage;
  Channel ch(cc);
  MemRequest a, b;
  a.id = 1;
  a.addr = DramAddress{0, 0, 0, 1, 0};
  b.id = 2;
  b.addr = DramAddress{0, 0, 0, 2, 0};  // same bank, different row
  ASSERT_TRUE(ch.enqueue(a));
  ASSERT_TRUE(ch.enqueue(b));
  std::vector<MemCompletion> out;
  std::uint64_t now = 0;
  while ((ch.pending() || ch.in_flight()) && now < 100000) ch.tick(++now, out);
  ASSERT_EQ(out.size(), 2u);
  const auto& t = cc.device.timing;
  // The conflicting access pays tRAS + tRP + tRCD on top of the first.
  const std::uint64_t gap = out[1].finish_cycle - out[0].finish_cycle;
  EXPECT_GE(gap, static_cast<std::uint64_t>(t.tRP) + t.tRCD);
  EXPECT_EQ(ch.row_hits(), 0u);
}

}  // namespace
}  // namespace eccsim::dram
