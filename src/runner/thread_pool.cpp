#include "runner/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <thread>
#include <vector>

namespace eccsim::runner {

namespace {

// Set for the lifetime of a parallel_for worker, so a nested call runs
// inline instead of starting threads of its own.
thread_local bool tl_worker = false;

}  // namespace

void parallel_for(std::size_t n, unsigned threads,
                  const std::function<void(std::size_t)>& fn) {
  if (threads <= 1 || n <= 1 || tl_worker) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    tl_worker = true;
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      fn(i);
    }
  };
  std::vector<std::thread> workers;
  const std::size_t count = std::min<std::size_t>(threads, n);
  workers.reserve(count);
  for (std::size_t t = 0; t < count; ++t) workers.emplace_back(work);
  for (auto& w : workers) w.join();
}

unsigned default_thread_count() {
  if (const char* env = std::getenv("RUNNER_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<unsigned>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace eccsim::runner
