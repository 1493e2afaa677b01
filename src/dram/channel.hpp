// One DRAM channel: transaction queue, Most-Pending scheduler, bank/rank
// timing state, close-page row policy, rank power-down, refresh, and energy
// accounting.
//
// Modeling approach: forward scheduling.  When the scheduler selects a
// transaction it computes the earliest cycle every device constraint allows
// (bank tRC/tRP recovery, rank tRRD_S/tRRD_L and tFAW, bank-group
// tCCD_S/tCCD_L command spacing, power-down exit tXP, refresh blackout,
// shared data bus with read/write turnaround) and books the command's
// effects (bank recovery point, bus occupancy, activate energy, rank active
// window) into the future.  Completions are delivered in issue order, from
// a FIFO, when simulated time reaches them: every booking places its data
// burst at or after the bus's previous finish (data_start >= bus_free_)
// and then moves bus_free_ to its own finish, on the row-hit and the ACT
// path alike, so within one channel finish cycles strictly increase in
// issue order.  This reproduces DDR service times and utilization without
// per-cycle FSM stepping, which keeps the full 16-workload x 8-scheme
// sweep tractable on one host core.
//
// The scheduler also sleeps.  A transaction issues only when its earliest
// ACT lies within tRC of now, and every earliest_act(req, now) is at least
// a floor that does not depend on now: the bank, tRRD and tFAW gates and
// a conflicting open row's precharge (act_floor), or for a request to the
// open row the earlier of that and its CAS gate, since the row may idle
// out.  A scan that issues nothing therefore sets wake_ = min floor - tRC,
// and tick() skips scanning until then.  The skip is exact: the state the
// scan reads changes only through enqueue(), which clears wake_, and
// issue(), which runs only inside a scan, so every scan that would issue
// still runs at the same cycle with the same `now`.
//
// Every timing/energy number comes from the ChannelConfig's DramSpec (see
// dram/spec.hpp): generations without bank groups (DDR3) set the _S and _L
// constraints equal, which makes the group gates degenerate to the classic
// single-rank constraints; same-bank refresh (DDR5 REFsb) rotates REF
// commands through bank sets and only blacks out the targeted set.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dram/spec.hpp"
#include "dram/observer.hpp"
#include "dram/request.hpp"
#include "stats/stats.hpp"
#include "stats/trace.hpp"

namespace eccsim::dram {

/// Energy tally in picojoules, split the way Figs. 12/13 report it:
/// dynamic (activate + read/write bursts) vs background (standby,
/// power-down, refresh).
struct EnergyBreakdown {
  double activate_pj = 0;
  double read_pj = 0;
  double write_pj = 0;
  double refresh_pj = 0;
  double background_pj = 0;

  double dynamic_pj() const { return activate_pj + read_pj + write_pj; }
  double total_pj() const { return dynamic_pj() + refresh_pj + background_pj; }

  void add(const EnergyBreakdown& o) {
    activate_pj += o.activate_pj;
    read_pj += o.read_pj;
    write_pj += o.write_pj;
    refresh_pj += o.refresh_pj;
    background_pj += o.background_pj;
  }
};

/// Traffic and latency counters for one channel.
struct ChannelStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t ecc_reads = 0;   ///< reads with LineClass != kData
  std::uint64_t ecc_writes = 0;  ///< writes with LineClass != kData
  std::uint64_t read_latency_sum = 0;  ///< enqueue -> data (cycles)
  std::uint64_t busy_data_cycles = 0;  ///< data-bus occupancy
  EnergyBreakdown energy;
};

/// Row-buffer management policy.
enum class RowPolicy : std::uint8_t {
  /// Auto-precharge after every access (the paper's choice, Sec. IV-B):
  /// banks return to precharged immediately, letting idle ranks sleep.
  kClosePage,
  /// Keep the row open until a conflict or an idle timeout: cheaper row
  /// hits, but ranks stay in active standby longer.
  kOpenPage,
};

/// Configuration of one channel (shared by all channels of a system).
/// A "channel" here is one independently-scheduled command/data bus: for
/// DDR5 each physical channel contributes device.sub_channels of these,
/// each owning chips_per_rank / sub_channels chips (hence the double).
struct ChannelConfig {
  DramSpec device;
  std::uint32_t ranks = 1;
  std::uint32_t banks = 8;
  double chips_per_rank = 18;  ///< all chips incl. ECC: they all activate
                               ///< and burst together; fractional when a
                               ///< physical rank splits across sub-channels
  std::uint32_t queue_depth = 64;
  std::uint32_t scheduler_window = 16;  ///< candidates examined per decision
  std::uint32_t idle_pd_timeout = 100;  ///< cycles idle before power-down
  bool powerdown_enabled = true;        ///< close-page sleep (Sec. IV-B)
  RowPolicy row_policy = RowPolicy::kClosePage;
  std::uint32_t open_row_timeout = 200;  ///< idle-close under open-page
};

/// A single memory channel.
class Channel {
 public:
  explicit Channel(const ChannelConfig& cfg);

  /// True if the transaction queue has room.
  bool can_accept() const { return queue_.size() < cfg_.queue_depth; }

  /// Enqueues a transaction; returns false if the queue is full.
  bool enqueue(const MemRequest& req);

  /// Advances to `now`: appends the completions finished by `now` to
  /// `out`, then issues at most one queued transaction if one can start
  /// soon.
  void tick(std::uint64_t now, std::vector<MemCompletion>& out) {
    while (done_count_ != 0 && done_[done_head_].finish_cycle <= now) {
      out.push_back(done_[done_head_]);
      done_head_ = (done_head_ + 1) & (done_.size() - 1);
      --done_count_;
    }
    if (!queue_.empty() && now >= wake_) schedule(now);
  }

  /// Earliest cycle at which tick() can do work: the next completion's
  /// finish, or the scheduler's wake-up cycle while transactions are
  /// queued; ~0 when the channel is idle.
  std::uint64_t next_event() const;

  /// Number of queued-but-unscheduled transactions.
  std::size_t pending() const { return queue_.size(); }
  /// Number of scheduled transactions whose completion has not been
  /// delivered yet.
  std::size_t in_flight() const { return done_count_; }

  /// Finalizes background-energy integration up to `end_cycle`.  Call once
  /// when the simulation stops; tick() must not be called afterwards.
  void finalize(std::uint64_t end_cycle);

  const ChannelStats& stats() const { return stats_; }
  const ChannelConfig& config() const { return cfg_; }

  /// Row-buffer hit statistics (meaningful under open-page).
  std::uint64_t row_hits() const { return row_hits_; }

  /// Statistics as they would look if the channel finalized at `now`:
  /// stats() plus background-standby/power-down energy and residual
  /// refresh energy integrated up to `now`.  Pure observation -- never
  /// mutates, so peeking mid-run cannot perturb the simulation, and a
  /// peek immediately before finalize(now) matches it exactly.
  ChannelStats peek_stats(std::uint64_t now) const;

  /// Registers this channel's observability stats in `reg` under
  /// `prefix` (e.g. "dram.ch0"): polled gauges over the counters the
  /// channel already keeps, push counters for ACTs (total and per bank),
  /// refreshes, a read-latency histogram, and a queue-depth
  /// distribution.  When `tracer` is non-null every issued command is
  /// mirrored as a Chrome trace event on track `tracer_tid`.  Call once,
  /// before traffic; `reg` and `tracer` must outlive the channel's use.
  void attach_stats(stats::Registry& reg, const std::string& prefix,
                    stats::Tracer* tracer = nullptr,
                    std::uint32_t tracer_tid = 0);

  /// Attaches a passive command observer (see dram/observer.hpp): every
  /// booked ACT / RD / WR / PRE / REF is mirrored to it with the exact
  /// cycle the scheduler assigned.  Pass nullptr to detach.  The observer
  /// must outlive the channel's use (including finalize(), which emits the
  /// residual refresh commands).  Observation only: results are
  /// bit-identical with or without an observer.
  void set_observer(CommandObserver* observer) { observer_ = observer; }

 private:
  struct BankState {
    std::uint64_t next_act = 0;  ///< earliest cycle an ACT may issue
    // Open-page state: the currently-open row, if any, and the timing
    // anchors needed to precharge or CAS it.
    bool row_open = false;
    std::uint64_t open_row = 0;
    std::uint64_t act_time = 0;      ///< when the open row was activated
    std::uint64_t earliest_pre = 0;  ///< tRAS / tRTP / tWR recovery point
    std::uint64_t next_cas = 0;      ///< tRCD / tCCD_L gate for the open row
    std::uint64_t last_use = 0;      ///< for the idle-close timeout
  };

  /// Bank groups a rank's fixed-size gate arrays hold (DDR5 has 8).
  static constexpr std::uint32_t kMaxBankGroups = 8;

  struct RankState {
    std::uint64_t next_act_rrd_s = 0;  ///< tRRD_S gate (any bank group)
    /// tRRD_L gate and tCCD_L gate, per bank group.
    std::array<std::uint64_t, kMaxBankGroups> next_act_rrd_l{};
    std::array<std::uint64_t, kMaxBankGroups> next_cas_group{};
    // The last 4 ACT times for tFAW, as a ring: act_times[act_slot] is
    // the oldest once act_count reaches 4.
    std::array<std::uint64_t, 4> act_times{};
    std::uint32_t act_slot = 0;   ///< where the next ACT time goes
    std::uint32_t act_count = 0;  ///< ACTs recorded, saturating at 4
    std::uint64_t active_until = 0;     ///< last cycle any bank is active
    std::uint64_t next_refresh = 0;
    std::uint64_t refs_issued = 0;  ///< REFs so far (drives REFsb rotation)
    // Background integration state: everything before bg_accounted_until
    // has been charged.
    std::uint64_t bg_accounted_until = 0;
  };

  /// Computes the earliest ACT cycle for a transaction, given all
  /// constraints and its act_floor(), without mutating state.
  std::uint64_t earliest_act(const MemRequest& req, std::uint64_t now,
                             std::uint64_t floor) const;

  /// The terms of earliest_act() that do not depend on `now` when the
  /// transaction needs an ACT (bank recovery, the conflicting row's
  /// precharge, tRRD_S/tRRD_L, tFAW).
  std::uint64_t act_floor(const MemRequest& req) const;

  /// The bank a transaction targets.
  BankState& bank_of(const DramAddress& a) {
    return banks_[a.rank * cfg_.banks + a.bank];
  }
  const BankState& bank_of(const DramAddress& a) const {
    return banks_[a.rank * cfg_.banks + a.bank];
  }

  /// True when `req` targets the row its bank holds open (open-page).
  bool holds_row(const BankState& bank, const MemRequest& req) const {
    return cfg_.row_policy == RowPolicy::kOpenPage && bank.row_open &&
           bank.open_row == req.addr.row;
  }

  /// Books a transaction: advances bank/rank/bus state, charges energy,
  /// schedules the completion.  Returns the data-finish cycle.
  std::uint64_t issue(const MemRequest& req, std::uint64_t now);

  /// Background energy (pJ) one rank accrues over [from, until), given
  /// its current active/standby/power-down phase boundaries.  Const: the
  /// single source of truth shared by account_background (which also
  /// advances the rank's accounting marker) and peek_stats (which must
  /// not).  The active-standby and idle (precharge-standby + power-down)
  /// contributions stay separate so both callers can accumulate them in
  /// the exact order the original single-caller code did -- summing them
  /// first would perturb the last ULP of the committed energy numbers.
  struct BackgroundParts {
    double active_pj = 0;
    double idle_pj = 0;
  };
  BackgroundParts background_pj_between(const RankState& rank,
                                        std::uint64_t from,
                                        std::uint64_t until) const;

  /// Charges background energy for one rank up to `until`.
  void account_background(RankState& rank, std::uint64_t until);

  /// Applies any refresh blackout overlapping [t, ...) and charges refresh
  /// energy; returns the possibly-delayed ACT time.  Under kAllBank a
  /// blackout delays every bank of the rank; under kSameBank only ACTs to
  /// the refreshed bank set wait, identified via `bank_idx`.
  std::uint64_t apply_refresh(RankState& rank, std::uint32_t rank_idx,
                              std::uint32_t bank_idx, std::uint64_t t_act);

  /// Charges one REF's energy, mirrors it to the observer, and advances the
  /// rank's refresh schedule (next_refresh, refs_issued).
  void charge_refresh(RankState& rank, std::uint32_t rank_idx);

  /// Mirrors one REF command to the observer (observer_ must be non-null).
  /// `bank_set` is the refreshed bank set (always 0 under kAllBank).
  void emit_refresh(std::uint32_t rank_idx, std::uint64_t cycle,
                    std::uint32_t bank_set);

  /// Appends a booked transaction's completion to the FIFO.
  void push_completion(const MemCompletion& done);

  /// The scheduler half of tick(): picks and issues at most one queued
  /// transaction, or sets wake_ when none can start soon.
  void schedule(std::uint64_t now);

  ChannelConfig cfg_;
  std::vector<RankState> ranks_;
  std::vector<BankState> banks_;  ///< rank-major: rank * banks + bank
  std::vector<MemRequest> queue_;  ///< oldest first; holds queue_depth
  // Scheduler scratch (earliest ACT per window entry) and the cycle before
  // which no queued transaction can issue (see the header comment).
  std::vector<std::uint64_t> acts_;
  std::uint64_t wake_ = 0;

  // Shared data bus: next free cycle, and whether the last burst was a
  // write (for turnaround penalties).
  std::uint64_t bus_free_ = 0;
  bool last_was_write_ = false;
  // Channel-wide CAS spacing gate: earliest cycle the next CAS command may
  // issue (last CAS + tCCD_S).  Never binds for DDR3, where tCCD_S equals
  // the burst length and the bus booking already spaces CAS commands.
  std::uint64_t next_cas_any_ = 0;

  // Booked transactions not yet delivered, in issue (= finish) order: a
  // ring of power-of-two size whose oldest entry is done_[done_head_].
  std::vector<MemCompletion> done_;
  std::size_t done_head_ = 0;
  std::size_t done_count_ = 0;

  ChannelStats stats_;
  std::uint64_t row_hits_ = 0;

  // Observability hooks (attach_stats): resolved once, null when stats
  // are off so the hot path pays a single predictable branch.
  struct StatHooks {
    stats::Counter* acts = nullptr;
    stats::Counter* refreshes = nullptr;
    std::vector<stats::Counter*> bank_acts;  ///< rank-major, banks minor
    stats::Histogram* read_latency = nullptr;
    stats::Distribution* queue_depth = nullptr;
  };
  std::unique_ptr<StatHooks> hooks_;
  stats::Tracer* tracer_ = nullptr;
  std::uint32_t tracer_tid_ = 0;
  CommandObserver* observer_ = nullptr;
};

}  // namespace eccsim::dram
