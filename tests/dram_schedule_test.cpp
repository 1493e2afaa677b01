// Scheduler golden digests: the DRAM command stream, every completion and
// the final statistics of a seeded, bursty request stream are hashed per
// configuration and compared with digests recorded from the tick-every-
// cycle scheduler.  Any change to when or what the scheduler issues --
// including skipping a cycle on which it would have issued -- changes a
// digest.  Every stream is also audited by the protocol checker, and two
// targeted cases pin the wake-up rules directly.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "check/protocol_checker.hpp"
#include "common/rng.hpp"
#include "dram/memory_system.hpp"

namespace eccsim::dram {
namespace {

/// 64-bit FNV-1a over the little-endian bytes of each value fed in.
class Fnv1a {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Forwards one channel's commands to a protocol checker and hashes them,
/// together with the memory cycle whose tick booked them.
class DigestObserver final : public CommandObserver {
 public:
  DigestObserver(const MemorySystem& mem, std::uint32_t channel, Fnv1a& fnv)
      : mem_(mem),
        channel_(channel),
        fnv_(fnv),
        checker_(mem.channel_config(), "ch" + std::to_string(channel),
                 check::ProtocolChecker::Mode::kCount) {}

  void on_command(const DramCommand& cmd) override {
    checker_.on_command(cmd);
    fnv_.add(std::uint64_t{0xc0});
    fnv_.add(mem_.cycle());
    fnv_.add(std::uint64_t{channel_});
    fnv_.add(static_cast<std::uint64_t>(cmd.kind));
    fnv_.add(cmd.cycle);
    fnv_.add(std::uint64_t{cmd.rank});
    fnv_.add(std::uint64_t{cmd.bank});
    fnv_.add(cmd.row);
    fnv_.add(std::uint64_t{cmd.col});
    fnv_.add(cmd.data_start);
    fnv_.add(cmd.data_end);
    fnv_.add(std::uint64_t{cmd.auto_precharge});
    fnv_.add(static_cast<std::uint64_t>(cmd.line_class));
  }

  const check::ProtocolChecker& checker() const { return checker_; }

 private:
  const MemorySystem& mem_;
  std::uint32_t channel_;
  Fnv1a& fnv_;
  check::ProtocolChecker checker_;
};

struct ScheduleCase {
  Generation gen;
  RowPolicy policy;
  bool powerdown;
  std::uint64_t digest;  ///< recorded from the tick-every-cycle scheduler
};

MemSystemConfig case_config(const ScheduleCase& c) {
  MemSystemConfig cfg;
  cfg.channels = 2;
  cfg.ranks_per_channel = 2;
  cfg.device = spec_for(c.gen, DeviceWidth::kX4);
  cfg.powerdown_enabled = c.powerdown;
  cfg.row_policy = c.policy;
  return cfg;
}

/// Drives a seeded stream through one memory system and returns its digest.
/// Bursts pile several requests per cycle onto a hot channel (so its queue
/// fills and rejects), and the gaps between bursts range from short to
/// longer than the power-down timeout and longer than tREFI.  Requests
/// cycle through every LineClass and a few rows per bank, so open-page
/// runs see row hits, conflicts and idle-closed rows.
std::uint64_t run_digest(const ScheduleCase& c, std::uint64_t seed) {
  const MemSystemConfig cfg = case_config(c);
  MemorySystem mem(cfg);
  Fnv1a fnv;
  std::vector<std::unique_ptr<DigestObserver>> observers;
  for (std::uint32_t ch = 0; ch < mem.num_channels(); ++ch) {
    observers.push_back(std::make_unique<DigestObserver>(mem, ch, fnv));
    mem.set_command_observer(ch, observers.back().get());
  }

  const ChannelConfig cc = mem.channel_config();
  const std::uint64_t refi = cfg.device.timing.tREFI;
  Rng rng(seed);
  std::uint64_t next_id = 0;
  std::uint64_t rejects = 0;

  auto consume = [&] {
    for (const MemCompletion& done : mem.completions()) {
      fnv.add(std::uint64_t{0xd0});
      fnv.add(mem.cycle());
      fnv.add(done.id);
      fnv.add(std::uint64_t{done.is_write});
      fnv.add(done.finish_cycle);
    }
    mem.completions().clear();
  };

  for (int burst = 0; burst < 24; ++burst) {
    const std::uint64_t burst_len = 100 + rng.next_below(900);
    const std::uint32_t hot =
        static_cast<std::uint32_t>(rng.next_below(mem.num_channels()));
    for (std::uint64_t i = 0; i < burst_len; ++i) {
      if (rng.bernoulli(0.6)) {
        const std::uint64_t n = 1 + rng.next_below(4);
        for (std::uint64_t k = 0; k < n; ++k) {
          DramAddress a;
          a.channel = rng.bernoulli(0.7)
                          ? hot
                          : static_cast<std::uint32_t>(
                                rng.next_below(mem.num_channels()));
          a.rank = static_cast<std::uint32_t>(rng.next_below(cc.ranks));
          a.bank = static_cast<std::uint32_t>(rng.next_below(cc.banks));
          a.row = rng.next_below(6);
          a.col = static_cast<std::uint32_t>(rng.next_below(64));
          const bool is_write = rng.bernoulli(0.35);
          const auto lc = static_cast<LineClass>(rng.next_below(4));
          const bool ok = mem.enqueue_addr(a, is_write, lc, next_id);
          fnv.add(std::uint64_t{0xe0});
          fnv.add(next_id);
          fnv.add(std::uint64_t{ok});
          if (!ok) ++rejects;
          ++next_id;
        }
      }
      mem.tick();
      consume();
    }
    // Idle gap: short, past the power-down timeout, or past tREFI.
    std::uint64_t gap = 0;
    switch (rng.next_below(3)) {
      case 0:
        gap = 20 + rng.next_below(60);
        break;
      case 1:
        gap = cc.idle_pd_timeout + 50 + rng.next_below(400);
        break;
      default:
        gap = refi + rng.next_below(2 * refi);
        break;
    }
    for (std::uint64_t i = 0; i < gap; ++i) {
      mem.tick();
      consume();
    }
  }
  // Bounded, so a scheduler that stops issuing fails instead of hanging.
  for (int i = 0; i < 1'000'000 && mem.outstanding() > 0; ++i) {
    mem.tick();
    consume();
  }
  EXPECT_EQ(mem.outstanding(), 0u);
  for (std::uint64_t i = 0; i < 2 * refi + 37; ++i) {
    mem.tick();
    consume();
  }

  const MemSystemStats s = mem.finalize();
  fnv.add(std::uint64_t{0xf0});
  fnv.add(mem.cycle());
  fnv.add(s.reads);
  fnv.add(s.writes);
  fnv.add(s.ecc_reads);
  fnv.add(s.ecc_writes);
  fnv.add(s.avg_read_latency);
  fnv.add(s.energy.activate_pj);
  fnv.add(s.energy.read_pj);
  fnv.add(s.energy.write_pj);
  fnv.add(s.energy.refresh_pj);
  fnv.add(s.energy.background_pj);

  EXPECT_GT(rejects, 0u) << "the stream must overflow a channel queue";
  for (const auto& obs : observers) {
    EXPECT_EQ(obs->checker().violation_count(), 0u) << obs->checker().report();
    EXPECT_GT(obs->checker().commands_checked(), 0u);
  }
  return fnv.value();
}

const char* policy_name(RowPolicy p) {
  return p == RowPolicy::kClosePage ? "close" : "open";
}

TEST(DramSchedule, GoldenDigests) {
  constexpr Generation kD3 = Generation::kDdr3;
  constexpr Generation kD4 = Generation::kDdr4;
  constexpr Generation kD5 = Generation::kDdr5;
  constexpr RowPolicy kClose = RowPolicy::kClosePage;
  constexpr RowPolicy kOpen = RowPolicy::kOpenPage;
  const ScheduleCase cases[] = {
      {kD3, kClose, true, 0xfc49b4e72775b9f8ULL},
      {kD3, kClose, false, 0x1055f6256b327173ULL},
      {kD3, kOpen, true, 0x461d65d1486e8a76ULL},
      {kD3, kOpen, false, 0x49423dab5f640f0eULL},
      {kD4, kClose, true, 0x377adf46d8d972d4ULL},
      {kD4, kClose, false, 0x3853fd7bd3b52410ULL},
      {kD4, kOpen, true, 0x4a28a3fb47a14f66ULL},
      {kD4, kOpen, false, 0xce5c7ce7c7793331ULL},
      {kD5, kClose, true, 0xfeb18f89e1cf9831ULL},
      {kD5, kClose, false, 0x169d0127cc7871a6ULL},
      {kD5, kOpen, true, 0x40434c93aaf4a70cULL},
      {kD5, kOpen, false, 0xadd4233979e32f3dULL},
  };
  std::uint64_t seed = 0x5eed;
  for (const ScheduleCase& c : cases) {
    char label[64];
    std::snprintf(label, sizeof label, "%s %s powerdown=%d",
                  to_string(c.gen).c_str(), policy_name(c.policy),
                  c.powerdown ? 1 : 0);
    SCOPED_TRACE(label);
    const std::uint64_t digest = run_digest(c, ++seed);
    EXPECT_EQ(digest, c.digest)
        << label << ": digest 0x" << std::hex << digest;
  }
}

/// Records the memory cycle at which each ACT is booked.
class ActRecorder final : public CommandObserver {
 public:
  explicit ActRecorder(const MemorySystem& mem) : mem_(mem) {}
  void on_command(const DramCommand& cmd) override {
    if (cmd.kind == CmdKind::kActivate) {
      acts.push_back({cmd.bank, mem_.cycle()});
    }
  }
  struct Act {
    std::uint32_t bank;
    std::uint64_t booked_at;
  };
  std::vector<Act> acts;

 private:
  const MemorySystem& mem_;
};

/// Ticks until a completion is delivered (bounded, so a lost completion
/// fails the test instead of hanging it).
void tick_until_completion(MemorySystem& mem) {
  for (int i = 0; i < 100'000 && mem.completions().empty(); ++i) mem.tick();
}

MemSystemConfig one_channel() {
  MemSystemConfig cfg;
  cfg.channels = 1;
  cfg.device = micron_2gb(DeviceWidth::kX4);
  return cfg;
}

TEST(DramSchedule, EnqueueToIdleBankIssuesOnNextTickWhileSleeping) {
  MemorySystem mem(one_channel());
  ActRecorder rec(mem);
  mem.set_command_observer(0, &rec);
  // Four requests to one bank: the first two book at once, the rest wait
  // on the bank's tRC recovery, so the channel sleeps with work queued.
  for (std::uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(mem.enqueue_addr(DramAddress{0, 0, 0, i, 0}, false,
                                 LineClass::kData, i));
  }
  for (int i = 0; i < 8; ++i) mem.tick();
  ASSERT_EQ(rec.acts.size(), 2u);
  ASSERT_EQ(mem.outstanding(), 4u);

  // A request to an idle bank can activate at once: it must be booked by
  // the very next tick, not when the sleeping bank-0 requests wake up.
  const std::uint64_t enqueued_at = mem.cycle();
  ASSERT_TRUE(mem.enqueue_addr(DramAddress{0, 0, 5, 0, 0}, false,
                               LineClass::kData, 99));
  mem.tick();
  ASSERT_EQ(rec.acts.size(), 3u);
  EXPECT_EQ(rec.acts.back().bank, 5u);
  EXPECT_EQ(rec.acts.back().booked_at, enqueued_at + 1);
}

TEST(DramSchedule, CompletionAfterLongSleepArrivesAtItsFinishCycle) {
  MemorySystem mem(one_channel());
  ASSERT_TRUE(
      mem.enqueue_addr(DramAddress{0, 0, 3, 7, 0}, false, LineClass::kData, 1));
  mem.tick();  // books the read; its data finishes tens of cycles later
  ASSERT_EQ(mem.outstanding(), 1u);
  ASSERT_TRUE(mem.completions().empty());
  tick_until_completion(mem);
  ASSERT_EQ(mem.completions().size(), 1u);
  EXPECT_EQ(mem.completions()[0].id, 1u);
  EXPECT_EQ(mem.completions()[0].finish_cycle, mem.cycle());
  EXPECT_GT(mem.cycle(), 10u);
  mem.completions().clear();

  // Again after an idle stretch much longer than tREFI, with nothing
  // queued anywhere in between.
  for (int i = 0; i < 50'000; ++i) mem.tick();
  ASSERT_TRUE(mem.completions().empty());
  ASSERT_TRUE(mem.enqueue_addr(DramAddress{0, 0, 1, 2, 0}, true,
                               LineClass::kEccParity, 2));
  tick_until_completion(mem);
  ASSERT_EQ(mem.completions().size(), 1u);
  EXPECT_EQ(mem.completions()[0].id, 2u);
  EXPECT_EQ(mem.completions()[0].finish_cycle, mem.cycle());
  EXPECT_EQ(mem.outstanding(), 0u);
}

}  // namespace
}  // namespace eccsim::dram
