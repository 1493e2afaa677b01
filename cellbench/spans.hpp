// In-memory span recorder for the traced run.
//
// A span is one timed call into a layer: name, start, end, the span that
// caused it, the cell it belongs to, and the work the call did as a count
// (ops, cycles, requests) so ratios are taken where the work happens.
// Spans stay in memory while the benchmark runs and are written out once
// at the end, so recording costs two clock reads and a vector append.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace cellbench {

class Spans {
 public:
  using Clock = std::chrono::steady_clock;
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  /// Opens a span under `parent` (kNoParent for a root); returns its index.
  std::size_t open(std::string name, std::size_t parent, std::string cell);
  /// Closes span `index` now; returns its duration in seconds.
  double close(std::size_t index);
  /// Records the work span `index` did.
  void set_work(std::size_t index, std::uint64_t work) {
    spans_[index].work = work;
  }

  struct SelfTime {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t work = 0;  ///< summed work counts
    double total_s = 0;      ///< summed durations
    double self_s = 0;       ///< summed durations minus child coverage
  };
  /// Per-name totals, in first-seen order.  A span's self time is its
  /// duration minus the part of it its direct children cover.
  std::vector<SelfTime> self_times() const;

  /// Writes every span (JSON array) and the self-time table to `path`.
  /// Returns false if the file cannot be written.
  bool write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::string cell;
    std::size_t parent = kNoParent;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t work = 0;
  };

  std::int64_t now_ns() const;

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// RAII helper: opens on construction, closes on destruction or stop().
class Scope {
 public:
  Scope(Spans& spans, std::string name, std::size_t parent, std::string cell)
      : spans_(spans),
        index_(spans.open(std::move(name), parent, std::move(cell))) {}
  ~Scope() { stop(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::size_t index() const { return index_; }
  void set_work(std::uint64_t work) { spans_.set_work(index_, work); }
  /// Closes the span (once) and returns its duration in seconds.
  double stop() {
    if (!open_) return seconds_;
    open_ = false;
    seconds_ = spans_.close(index_);
    return seconds_;
  }

 private:
  Spans& spans_;
  std::size_t index_;
  bool open_ = true;
  double seconds_ = 0;
};

}  // namespace cellbench
