// Host-speed calibration for the end-to-end timings.
//
// On a shared VM other tenants slow this process for seconds to minutes
// at a time: over ten runs of bin1_sweep, raw pass times ranged from 2.6 s
// to 4.0 s with the thread on CPU throughout (thread CPU time tracked wall
// time), so the slowdown is lost speed, not lost turns.  A fixed loop run
// beside the cells slows with them: the benchmark runs one right after
// each timed cell and reports the cell's time in units of the loop's time,
// rescaled to seconds on a host where the loop takes kReferenceSeconds.
// The loop has two parts shaped like the simulator's two halves: an
// LLC-sized set-associative tag store (the warm-up) and a scan of a
// 64-entry request queue over per-bank timers (the DRAM scheduler).  On
// bin2_sweep, where raw pass time swung with a 12% coefficient of
// variation, the tag-store part alone cut it to 4.7% and the two parts
// together to 2.8%: the tag store alone slows less than the cells, the
// scan more.  A change to the simulator moves the cell times and
// not the loop, so it shows in full.
#pragma once

#include <cstdint>
#include <vector>

namespace cellbench {

class HostSpeed {
 public:
  /// Seconds the loop takes on the reference host; reported times are
  /// host seconds rescaled to that host.
  static constexpr double kReferenceSeconds = 0.010;

  /// Runs the fixed loop once and returns its host seconds.
  double measure();

  /// Scales host seconds measured next to a loop that took `loop_s` to the
  /// reference host.
  static double rescale(double host_s, double loop_s) {
    return host_s / loop_s * kReferenceSeconds;
  }

 private:
  double tag_store();
  double scheduler();

  // Tag store: 16-way LRU over 8 MB of 64 B lines (the LLC's shape), fed
  // by an xorshift stream that sends three accesses in four to a hot set.
  static constexpr std::uint32_t kSets = 8192;
  static constexpr std::uint32_t kWays = 16;
  static constexpr int kAccesses = 100'000;
  // Scheduler: each step scans the queue for the lowest request whose
  // bank is ready.  Step numbers restart every call while the bank timers
  // carry over, so after the first call the banks stay busy for most
  // steps and the loop is mostly the 64-entry scan: short, predictable and
  // L1-resident, the kind of code a busy sibling core slows most.
  static constexpr std::uint32_t kBanks = 16;
  static constexpr std::uint32_t kQueue = 64;
  static constexpr std::uint32_t kSteps = 62'500;

  std::vector<std::uint64_t> tags_ =
      std::vector<std::uint64_t>(kSets * kWays, ~0ULL);
  std::vector<std::uint32_t> lru_ = std::vector<std::uint32_t>(kSets * kWays, 0);
  std::uint32_t tick_ = 0;
  std::uint32_t bank_ready_[kBanks] = {};
  std::uint32_t queue_[kQueue] = {};
  std::uint64_t state_ = 88172645463325252ULL;
  std::uint64_t work_ = 0;  ///< hits + requests served; keeps the loops live
};

}  // namespace cellbench
