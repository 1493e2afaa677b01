// Unit tests for the DDR3 DRAM simulator: device parameters, address
// mapping, channel timing constraints, power accounting, and the
// memory-system facade.
#include <gtest/gtest.h>

#include <limits>
#include <random>
#include <set>
#include <stdexcept>
#include <vector>

#include "dram/address_map.hpp"
#include "dram/channel.hpp"
#include "dram/spec.hpp"
#include "dram/memory_system.hpp"

namespace eccsim::dram {
namespace {

// ---------------------------------------------------------------------------
// Device parameters

TEST(Ddr3Params, GeometryMatchesCapacity) {
  for (auto w : {DeviceWidth::kX4, DeviceWidth::kX8, DeviceWidth::kX16}) {
    const Ddr3Device d = micron_2gb(w);
    const std::uint64_t bits = static_cast<std::uint64_t>(d.banks) * d.rows *
                               d.columns * static_cast<unsigned>(w);
    EXPECT_EQ(bits, d.capacity_mbit * 1024 * 1024) << to_string(w);
  }
}

TEST(Ddr3Params, X16HasFewerRows) {
  EXPECT_EQ(micron_2gb(DeviceWidth::kX4).rows, 32768u);
  EXPECT_EQ(micron_2gb(DeviceWidth::kX8).rows, 32768u);
  EXPECT_EQ(micron_2gb(DeviceWidth::kX16).rows, 16384u);
}

TEST(Ddr3Params, DerivedEnergiesArePositive) {
  for (auto w : {DeviceWidth::kX4, DeviceWidth::kX8, DeviceWidth::kX16}) {
    const Ddr3Device d = micron_2gb(w);
    EXPECT_GT(d.energy.act_pj, 0.0);
    EXPECT_GT(d.energy.rd_burst_pj, 0.0);
    EXPECT_GT(d.energy.wr_burst_pj, 0.0);
    EXPECT_GT(d.energy.refresh_pj, 0.0);
    EXPECT_GT(d.energy.bg_pre_pj_cyc, d.energy.bg_pd_pj_cyc);
    EXPECT_GT(d.energy.bg_act_pj_cyc, d.energy.bg_pre_pj_cyc);
  }
}

TEST(Ddr3Params, WiderChipsBurnMoreBurstEnergy) {
  const auto x4 = micron_2gb(DeviceWidth::kX4);
  const auto x8 = micron_2gb(DeviceWidth::kX8);
  const auto x16 = micron_2gb(DeviceWidth::kX16);
  EXPECT_LT(x4.energy.rd_burst_pj, x8.energy.rd_burst_pj);
  EXPECT_LT(x8.energy.rd_burst_pj, x16.energy.rd_burst_pj);
}

TEST(Ddr3Params, FasterSpeedBinShortensLatencyAndRaisesCurrent) {
  const auto base = micron_2gb(DeviceWidth::kX8);
  const auto fast = micron_2gb(DeviceWidth::kX8, 1.16);
  EXPECT_LT(fast.timing.tCL, base.timing.tCL);
  EXPECT_GT(fast.currents.idd4r, base.currents.idd4r);
}

// ---------------------------------------------------------------------------
// Address map

TEST(AddressMap, DecodeEncodeRoundTrip) {
  MemGeometry g;
  g.channels = 8;
  g.ranks_per_channel = 4;
  g.banks_per_rank = 8;
  g.rows_per_bank = 1024;
  g.line_bytes = 64;
  AddressMap map(g);
  for (std::uint64_t line = 0; line < g.total_data_lines();
       line += 977) {  // prime stride samples the space
    EXPECT_EQ(map.encode(map.decode(line)), line);
  }
}

TEST(AddressMap, AdjacentPagesInterleaveAcrossChannels) {
  MemGeometry g;
  g.channels = 4;
  g.rows_per_bank = 256;
  AddressMap map(g);
  const std::uint32_t lpr = g.lines_per_row();
  for (unsigned p = 0; p < 16; ++p) {
    const DramAddress a = map.decode(static_cast<std::uint64_t>(p) * lpr);
    EXPECT_EQ(a.channel, p % 4u);
  }
}

TEST(AddressMap, LinesWithinPageShareChannel) {
  MemGeometry g;
  g.rows_per_bank = 256;
  AddressMap map(g);
  const DramAddress first = map.decode(0);
  for (std::uint32_t i = 1; i < g.lines_per_row(); ++i) {
    const DramAddress a = map.decode(i);
    EXPECT_EQ(a.channel, first.channel);
  }
}

TEST(AddressMap, ConsecutiveLinesWithinChannelSpreadBanks) {
  // The High-Performance close-page map: lines of one page interleave
  // across every bank of the channel, so streams never serialize on one
  // bank's tRC recovery.
  MemGeometry g;
  g.channels = 2;
  g.banks_per_rank = 8;
  g.rows_per_bank = 64;
  AddressMap map(g);
  std::set<std::uint32_t> banks;
  for (unsigned i = 0; i < 8; ++i) {
    const DramAddress a = map.decode(i);
    ASSERT_EQ(a.channel, 0u);
    banks.insert(a.bank);
  }
  EXPECT_EQ(banks.size(), 8u);
}

TEST(AddressMap, ConsecutiveLinesSpreadRanksAfterBanks) {
  MemGeometry g;
  g.channels = 2;
  g.banks_per_rank = 8;
  g.ranks_per_channel = 4;
  g.rows_per_bank = 64;
  AddressMap map(g);
  // Line 8 wraps to bank 0 of the next rank.
  EXPECT_EQ(map.decode(0).rank, 0u);
  EXPECT_EQ(map.decode(8).rank, 1u);
  EXPECT_EQ(map.decode(8).bank, 0u);
}

// ExactDivider must equal the divide instruction for every divisor and
// every 64-bit dividend, including the extremes the reciprocal's rounding
// is most likely to get wrong.
TEST(ExactDivider, MatchesHardwareDivision) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::vector<std::uint64_t> divisors;
  for (std::uint64_t d = 1; d <= 130; ++d) divisors.push_back(d);
  for (unsigned k = 1; k < 64; ++k) {
    const std::uint64_t p = 1ULL << k;
    divisors.insert(divisors.end(), {p - 1, p, p + 1});
  }
  divisors.insert(divisors.end(), {kMax, kMax - 1, 1'000'000'007ULL});
  std::mt19937_64 rng(0xD1D);
  for (int i = 0; i < 64; ++i) divisors.push_back(rng() | 1);
  for (const std::uint64_t d : divisors) {
    const ExactDivider div(d);
    std::vector<std::uint64_t> dividends = {0,        1,        d - 1,
                                            d,        d + 1,    kMax,
                                            kMax - 1, kMax - d, kMax / d * d};
    for (int i = 0; i < 200; ++i) {
      dividends.push_back(rng());
      dividends.push_back(rng() >> (rng() % 64));
    }
    for (const std::uint64_t n : dividends) {
      ASSERT_EQ(div.quotient(n), n / d) << n << " / " << d;
    }
  }
  EXPECT_THROW(ExactDivider(0), std::invalid_argument);
}

TEST(AddressMap, RejectsNonPowerOfTwoGeometry) {
  MemGeometry g;
  g.banks_per_rank = 6;
  EXPECT_THROW(AddressMap{g}, std::invalid_argument);
  g = MemGeometry{};
  g.ranks_per_channel = 3;
  EXPECT_THROW(AddressMap{g}, std::invalid_argument);
  g = MemGeometry{};
  g.line_bytes = 96;  // 4096 / 96: not a whole power of two per row
  EXPECT_THROW(AddressMap{g}, std::invalid_argument);
  g = MemGeometry{};
  g.channels = 0;
  EXPECT_THROW(AddressMap{g}, std::invalid_argument);
  g = MemGeometry{};
  g.channels = 5;  // channels may be any count (RAIM+Parity has 5 and 10)
  EXPECT_NO_THROW(AddressMap{g});
}

TEST(AddressMap, GeometryByteAccounting) {
  MemGeometry g;
  g.channels = 8;
  g.ranks_per_channel = 4;
  g.banks_per_rank = 8;
  g.rows_per_bank = 32768;
  g.line_bytes = 64;
  // 8 * 4 * 8 banks * 32768 rows * 4KB = 32 GiB
  EXPECT_EQ(g.total_data_bytes(), 32ULL * 1024 * 1024 * 1024);
}

// ---------------------------------------------------------------------------
// Channel timing

ChannelConfig test_channel_config() {
  ChannelConfig cc;
  cc.device = micron_2gb(DeviceWidth::kX8);
  cc.ranks = 2;
  cc.banks = 8;
  cc.chips_per_rank = 9;
  return cc;
}

MemRequest make_req(std::uint64_t id, std::uint32_t rank, std::uint32_t bank,
                    std::uint64_t row, std::uint32_t col, bool write) {
  MemRequest r;
  r.id = id;
  r.addr = DramAddress{0, rank, bank, row, col};
  r.is_write = write;
  return r;
}

/// Runs the channel until all completions arrive or `limit` cycles pass.
std::vector<MemCompletion> run_until_drained(Channel& ch, std::uint64_t limit) {
  std::vector<MemCompletion> out;
  std::uint64_t now = 0;
  while ((ch.pending() || ch.in_flight()) && now < limit) {
    ch.tick(++now, out);
  }
  return out;
}

TEST(Channel, SingleReadLatencyRespectsActToData) {
  Channel ch(test_channel_config());
  ASSERT_TRUE(ch.enqueue(make_req(1, 0, 0, 0, 0, false)));
  const auto done = run_until_drained(ch, 10000);
  ASSERT_EQ(done.size(), 1u);
  const auto& t = test_channel_config().device.timing;
  // Data cannot finish before ACT + tRCD + tCL + tBurst.
  EXPECT_GE(done[0].finish_cycle, t.tRCD + t.tCL + t.tBurst);
  EXPECT_LE(done[0].finish_cycle, t.tRCD + t.tCL + t.tBurst + t.tXP + 8);
}

TEST(Channel, SameBankBackToBackSeparatedByTrc) {
  Channel ch(test_channel_config());
  ASSERT_TRUE(ch.enqueue(make_req(1, 0, 3, 7, 0, false)));
  ASSERT_TRUE(ch.enqueue(make_req(2, 0, 3, 9, 0, false)));  // same bank
  const auto done = run_until_drained(ch, 10000);
  ASSERT_EQ(done.size(), 2u);
  const auto& t = test_channel_config().device.timing;
  const std::uint64_t gap = done[1].finish_cycle - done[0].finish_cycle;
  EXPECT_GE(gap, static_cast<std::uint64_t>(t.tRC) - t.tBurst);
}

TEST(Channel, DifferentBanksPipelineOnDataBus) {
  Channel ch(test_channel_config());
  for (unsigned i = 0; i < 8; ++i) {
    ASSERT_TRUE(ch.enqueue(make_req(i, 0, i, 0, 0, false)));
  }
  const auto done = run_until_drained(ch, 10000);
  ASSERT_EQ(done.size(), 8u);
  // Bus-limited: at steady state consecutive reads finish ~tBurst apart
  // (modulo tRRD/tFAW); total span must be far below 8 serial accesses.
  const auto& t = test_channel_config().device.timing;
  const std::uint64_t span = done.back().finish_cycle - done[0].finish_cycle;
  EXPECT_LT(span, 7ULL * t.tRC);
  EXPECT_GE(span, 7ULL * t.tBurst);
}

TEST(Channel, TfawLimitsActivateBursts) {
  auto cfg = test_channel_config();
  Channel ch(cfg);
  // 5 activates to distinct banks in one rank: the 5th waits for tFAW.
  for (unsigned i = 0; i < 5; ++i) {
    ASSERT_TRUE(ch.enqueue(make_req(i, 0, i, 0, 0, false)));
  }
  const auto done = run_until_drained(ch, 10000);
  ASSERT_EQ(done.size(), 5u);
  const auto& t = cfg.device.timing;
  // The 5th access cannot finish before tFAW + tRCD + tCL + tBurst.
  EXPECT_GE(done[4].finish_cycle,
            static_cast<std::uint64_t>(t.tFAW) + t.tRCD + t.tCL + t.tBurst);
}

TEST(Channel, WritesCountSeparately) {
  Channel ch(test_channel_config());
  ASSERT_TRUE(ch.enqueue(make_req(1, 0, 0, 0, 0, true)));
  ASSERT_TRUE(ch.enqueue(make_req(2, 0, 1, 0, 0, false)));
  run_until_drained(ch, 10000);
  EXPECT_EQ(ch.stats().writes, 1u);
  EXPECT_EQ(ch.stats().reads, 1u);
  EXPECT_GT(ch.stats().energy.write_pj, 0.0);
  EXPECT_GT(ch.stats().energy.read_pj, 0.0);
}

TEST(Channel, EccLineClassTracked) {
  Channel ch(test_channel_config());
  MemRequest r = make_req(1, 0, 0, 0, 0, true);
  r.line_class = LineClass::kEccParity;
  ASSERT_TRUE(ch.enqueue(r));
  run_until_drained(ch, 10000);
  EXPECT_EQ(ch.stats().ecc_writes, 1u);
}

TEST(Channel, IdleRankAccruesPowerDownEnergy) {
  auto cfg = test_channel_config();
  Channel ch(cfg);
  std::vector<MemCompletion> out;
  for (std::uint64_t now = 1; now <= 100000; ++now) ch.tick(now, out);
  ch.finalize(100000);
  const double bg = ch.stats().energy.background_pj;
  // Idle the whole time: expect ~power-down floor for 2 ranks * 9 chips.
  const double pd_floor = cfg.device.energy.bg_pd_pj_cyc * 18 * 100000;
  EXPECT_GT(bg, 0.9 * pd_floor);
  EXPECT_LT(bg, 1.5 * pd_floor);
}

TEST(Channel, PowerdownDisabledCostsStandby) {
  auto cfg = test_channel_config();
  cfg.powerdown_enabled = false;
  Channel ch(cfg);
  std::vector<MemCompletion> out;
  for (std::uint64_t now = 1; now <= 50000; ++now) ch.tick(now, out);
  ch.finalize(50000);
  const double standby_floor = cfg.device.energy.bg_pre_pj_cyc * 18 * 50000;
  EXPECT_GT(ch.stats().energy.background_pj, 0.95 * standby_floor);
}

TEST(Channel, RefreshEnergyAccruesWhenIdle) {
  auto cfg = test_channel_config();
  Channel ch(cfg);
  std::vector<MemCompletion> out;
  const std::uint64_t cycles = 10 * cfg.device.timing.tREFI;
  for (std::uint64_t now = 1; now <= cycles; ++now) ch.tick(now, out);
  ch.finalize(cycles);
  // ~10 refreshes per rank, 2 ranks.
  const double expect =
      20.0 * cfg.device.energy.refresh_pj * cfg.chips_per_rank;
  EXPECT_NEAR(ch.stats().energy.refresh_pj, expect, expect * 0.2);
}

TEST(Channel, QueueFullRejects) {
  auto cfg = test_channel_config();
  cfg.queue_depth = 4;
  Channel ch(cfg);
  for (unsigned i = 0; i < 4; ++i) {
    EXPECT_TRUE(ch.enqueue(make_req(i, 0, 0, 0, 0, false)));
  }
  EXPECT_FALSE(ch.enqueue(make_req(99, 0, 0, 0, 0, false)));
}

TEST(Channel, BadRankThrows) {
  Channel ch(test_channel_config());
  EXPECT_THROW(ch.enqueue(make_req(1, 7, 0, 0, 0, false)),
               std::out_of_range);
}

TEST(Channel, BankGroupCountIsChecked) {
  auto cfg = test_channel_config();
  cfg.device.bank_groups = 0;
  EXPECT_THROW(Channel{cfg}, std::invalid_argument);
  cfg.device.bank_groups = 9;
  EXPECT_THROW(Channel{cfg}, std::invalid_argument);
  cfg.device.bank_groups = 8;
  EXPECT_NO_THROW(Channel{cfg});
}

// With four ranks the channel books ACTs faster than the data bus drains
// them, so far more transactions are in flight than a short queue holds
// and the completion FIFO must grow while wrapped.  Every request still
// completes once, in strictly increasing finish order.
TEST(Channel, CompletionFifoGrowsAndKeepsFinishOrder) {
  auto cfg = test_channel_config();
  cfg.ranks = 4;
  cfg.queue_depth = 4;
  Channel ch(cfg);
  std::vector<MemCompletion> out;
  std::uint64_t now = 0;
  std::uint64_t next_id = 0;
  std::size_t max_in_flight = 0;
  while (next_id < 400 || ch.pending() + ch.in_flight() > 0) {
    while (next_id < 400 &&
           ch.enqueue(make_req(next_id, next_id % 4, (next_id / 4) % 8,
                               next_id, 0, next_id % 3 == 0))) {
      ++next_id;
    }
    ch.tick(++now, out);
    max_in_flight = std::max(max_in_flight, ch.in_flight());
    ASSERT_LT(now, 100'000u);
  }
  EXPECT_GT(max_in_flight, 2 * cfg.queue_depth + 16);
  ASSERT_EQ(out.size(), 400u);
  std::vector<bool> seen(400, false);
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (i > 0) {
      EXPECT_GT(out[i].finish_cycle, out[i - 1].finish_cycle);
    }
    EXPECT_LE(out[i].finish_cycle, now);
    ASSERT_LT(out[i].id, 400u);
    EXPECT_FALSE(seen[out[i].id]) << "id " << out[i].id;
    seen[out[i].id] = true;
  }
}

TEST(Channel, ReadLatencyStatTracksQueueing) {
  Channel ch(test_channel_config());
  // Saturate one bank; later requests should see growing latency.
  for (unsigned i = 0; i < 16; ++i) {
    ASSERT_TRUE(ch.enqueue(make_req(i, 0, 0, i, 0, false)));
  }
  run_until_drained(ch, 100000);
  const double avg = static_cast<double>(ch.stats().read_latency_sum) / 16.0;
  const auto& t = test_channel_config().device.timing;
  EXPECT_GT(avg, static_cast<double>(t.tRC));  // queued behind bank recovery
}

// ---------------------------------------------------------------------------
// Memory system

MemSystemConfig small_system() {
  MemSystemConfig cfg;
  cfg.channels = 4;
  cfg.ranks_per_channel = 2;
  cfg.chips_per_rank = 9;
  cfg.data_chips_per_rank = 8;
  cfg.line_bytes = 64;
  cfg.device = micron_2gb(DeviceWidth::kX8);
  return cfg;
}

TEST(MemorySystem, CapacityAndPins) {
  const MemSystemConfig cfg = small_system();
  // 4 chan * 2 ranks * 8 data chips * 256MB = 16 GiB.
  EXPECT_EQ(cfg.data_capacity_bytes(), 16ULL * 1024 * 1024 * 1024);
  EXPECT_EQ(cfg.total_io_pins(), 4ULL * 9 * 8);
  EXPECT_EQ(cfg.total_chips(), 72u);
}

TEST(MemorySystem, RequestsRouteToMappedChannel) {
  MemorySystem mem(small_system());
  const DramAddress a = mem.map().decode(12345);
  ASSERT_TRUE(mem.enqueue_addr(a, false, LineClass::kData, 7));
  // Drain.
  while (mem.outstanding() > 0) mem.tick();
  auto& done = mem.completions();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].id, 7u);
}

TEST(MemorySystem, ParallelChannelsOutpaceSingleChannel) {
  // Issue 64 requests spread across channels vs pinned to one channel.
  std::uint64_t t_spread = 0, t_pinned = 0;
  {
    MemorySystem mem(small_system());
    const auto g = small_system().geometry();
    const std::uint32_t lpr = g.lines_per_row();
    for (unsigned i = 0; i < 64; ++i) {
      ASSERT_TRUE(mem.enqueue_addr(
          mem.map().decode(static_cast<std::uint64_t>(i) * lpr), false,
          LineClass::kData, i));
    }
    while (mem.outstanding() > 0) mem.tick();
    t_spread = mem.cycle();
  }
  {
    MemorySystem mem(small_system());
    const auto g = small_system().geometry();
    const std::uint32_t lpr = g.lines_per_row();
    for (unsigned i = 0; i < 64; ++i) {
      ASSERT_TRUE(mem.enqueue_addr(
          mem.map().decode(static_cast<std::uint64_t>(i) * 4 * lpr), false,
          LineClass::kData, i));
    }
    while (mem.outstanding() > 0) mem.tick();
    t_pinned = mem.cycle();
  }
  EXPECT_LT(t_spread, t_pinned);
}

TEST(MemorySystem, FinalizeAggregatesEnergy) {
  MemorySystem mem(small_system());
  for (unsigned i = 0; i < 32; ++i) {
    ASSERT_TRUE(mem.enqueue_addr(mem.map().decode(i * 64), i % 2 == 0,
                                 LineClass::kData, i));
  }
  while (mem.outstanding() > 0) mem.tick();
  const MemSystemStats s = mem.finalize();
  EXPECT_EQ(s.reads + s.writes, 32u);
  EXPECT_GT(s.energy.activate_pj, 0.0);
  EXPECT_GT(s.energy.background_pj, 0.0);
  EXPECT_GT(s.energy.total_pj(), s.energy.dynamic_pj());

  // finalize() is idempotent: a second call reports the same totals.
  const MemSystemStats again = mem.finalize();
  EXPECT_EQ(again.energy.total_pj(), s.energy.total_pj());
  EXPECT_EQ(again.reads, s.reads);
}

TEST(Channel, PeekMatchesFinalizeExactly) {
  // peek_stats() is the observation path the stats gauges poll; it must
  // report precisely what finalize() is about to, including residual
  // refresh energy and background energy integrated to the current cycle
  // -- and it must not advance any accounting state while doing so.
  const ChannelConfig cc = test_channel_config();
  Channel ch(cc);
  for (unsigned i = 0; i < 48; ++i) {
    MemRequest r = make_req(i, i % 2, (i / 2) % 8, i * 3, i % 64, i % 3 == 0);
    r.line_class = i % 5 == 0 ? LineClass::kEccParity : LineClass::kData;
    ASSERT_TRUE(ch.enqueue(r));
  }
  std::vector<MemCompletion> out;
  std::uint64_t now = 0;
  while (ch.pending() || ch.in_flight()) ch.tick(++now, out);
  // Idle long enough to cross several refresh intervals so the residual
  // refresh/background terms are nonzero.
  now += 4 * cc.device.timing.tREFI;

  const ChannelStats peeked = ch.peek_stats(now);
  const ChannelStats repeeked = ch.peek_stats(now);  // peeking is idempotent
  ch.finalize(now);
  const ChannelStats& fin = ch.stats();

  EXPECT_EQ(peeked.reads, fin.reads);
  EXPECT_EQ(peeked.writes, fin.writes);
  EXPECT_EQ(peeked.ecc_reads, fin.ecc_reads);
  EXPECT_EQ(peeked.read_latency_sum, fin.read_latency_sum);
  // Bit-exact energy equality: peek and finalize share the same
  // integration code and accumulation order.
  EXPECT_EQ(peeked.energy.activate_pj, fin.energy.activate_pj);
  EXPECT_EQ(peeked.energy.refresh_pj, fin.energy.refresh_pj);
  EXPECT_EQ(peeked.energy.background_pj, fin.energy.background_pj);
  EXPECT_EQ(peeked.energy.total_pj(), fin.energy.total_pj());
  EXPECT_EQ(repeeked.energy.total_pj(), peeked.energy.total_pj());
  EXPECT_GT(fin.energy.refresh_pj, 0.0);
  EXPECT_GT(fin.energy.background_pj, 0.0);
  // After finalize the accounting markers have caught up: a peek at the
  // same cycle adds nothing.
  EXPECT_EQ(ch.peek_stats(now).energy.total_pj(), fin.energy.total_pj());
}

TEST(MemorySystem, Access64bNormalization) {
  MemSystemStats s;
  s.reads = 10;
  s.writes = 6;
  EXPECT_EQ(s.accesses_64b(64), 16u);
  EXPECT_EQ(s.accesses_64b(128), 32u);
}

}  // namespace
}  // namespace eccsim::dram
