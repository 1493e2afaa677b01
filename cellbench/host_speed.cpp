#include "host_speed.hpp"

#include <chrono>

namespace cellbench {

namespace {

double since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::uint64_t xorshift(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

}  // namespace

double HostSpeed::measure() { return tag_store() + scheduler(); }

double HostSpeed::tag_store() {
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kAccesses; ++i) {
    const std::uint64_t r = xorshift(state_);
    const std::uint64_t line =
        (r & 3) != 0 ? (r >> 8) % 100'000 : (r >> 8) % 4'000'000;
    const std::size_t base = (line % kSets) * kWays;
    std::uint32_t hit = kWays;
    std::uint32_t victim = 0;
    for (std::uint32_t w = 0; w < kWays; ++w) {
      if (tags_[base + w] == line) hit = w;
      if (lru_[base + w] < lru_[base + victim]) victim = w;
    }
    if (hit != kWays) {
      ++work_;
      lru_[base + hit] = ++tick_;
    } else {
      tags_[base + victim] = line;
      lru_[base + victim] = ++tick_;
    }
  }
  return since(t0);
}

double HostSpeed::scheduler() {
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint32_t i = 0; i < kQueue; ++i) queue_[i] = i * 7 % kBanks;
  for (std::uint32_t now = 1; now <= kSteps; ++now) {
    std::uint32_t pick = kQueue;
    for (std::uint32_t i = 0; i < kQueue; ++i) {
      if (bank_ready_[queue_[i] % kBanks] <= now &&
          (pick == kQueue || queue_[i] < queue_[pick])) {
        pick = i;
      }
    }
    if (pick == kQueue) continue;
    const std::uint64_t r = xorshift(state_);
    bank_ready_[queue_[pick] % kBanks] =
        now + 4 + static_cast<std::uint32_t>(r & 15);
    queue_[pick] = static_cast<std::uint32_t>(r >> 20) & 0xffff;
    ++work_;
  }
  return since(t0);
}

}  // namespace cellbench
