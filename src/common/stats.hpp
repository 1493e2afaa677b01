// Streaming statistics for the fault Monte Carlo and the benchmark
// harness: single-pass mean/variance (Welford), a bounded deterministic
// percentile sketch, the relative confidence interval that stops Monte
// Carlo runs early, and the means used by the paper's cross-workload
// averages.  The simulator's run-time stats (counters, distributions,
// histograms, epoch series) live in src/stats.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace eccsim {

/// Single-pass mean / variance / min / max accumulator (Welford's method,
/// numerically stable).
class RunningStat {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

  /// Merges another accumulator into this one (parallel reduction).
  void merge(const RunningStat& other);

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Bounded-memory percentile sketch for Monte Carlo populations too large
/// to retain in full.  Keeps the `cap` samples with the smallest caller
/// supplied 64-bit keys (a deterministic "bottom-k" sketch): with keys
/// drawn from a hash of the sample's index, the retained set is a uniform
/// random subset of everything offered, and -- unlike classic reservoir
/// sampling -- it is independent of insertion order, thread count, and
/// chunking, so percentile estimates are bit-identical under any parallel
/// schedule.  While offered() <= capacity the sketch is exhaustive and
/// percentiles are exact.
class QuantileReservoir {
 public:
  explicit QuantileReservoir(std::size_t cap);

  /// Offers one sample.  `key` must be a deterministic function of the
  /// sample's identity (e.g. a hash of its Monte Carlo system index);
  /// ties on key break on value so the retained set is a pure function
  /// of the offered multiset.
  void add(double value, std::uint64_t key);

  std::size_t capacity() const { return cap_; }
  std::size_t offered() const { return offered_; }
  std::size_t retained() const { return heap_.size(); }
  /// True while every offered sample is still retained (percentiles are
  /// exact rather than subsampled estimates).
  bool exact() const { return offered_ <= cap_; }

  /// Nearest-rank percentile over the retained subset; p in [0, 100]
  /// (clamped).  0.0 when nothing was offered.
  double percentile(double p) const;

 private:
  struct Item {
    std::uint64_t key;
    double value;
    bool operator<(const Item& o) const {
      return key != o.key ? key < o.key : value < o.value;
    }
  };

  std::size_t cap_;
  std::uint64_t offered_ = 0;
  std::vector<Item> heap_;  // max-heap on (key, value): front = largest kept
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
};

/// Half-width of the normal-approximation 95% confidence interval of the
/// mean, relative to |mean|.  Returns +inf when fewer than two samples
/// have been seen or the mean is zero (no meaningful relative width), so
/// `relative_ci95(s) <= target` is a safe convergence test.
double relative_ci95(const RunningStat& s);

/// Geometric mean of a set of (positive) values.  The paper's "average
/// reduction across workloads" figures are cross-workload means of ratios;
/// we use the geometric mean for ratio aggregation.
double geomean(const std::vector<double>& values);

/// Arithmetic mean convenience.
double mean(const std::vector<double>& values);

}  // namespace eccsim
