#include "common/stats.hpp"

#include <cmath>
#include <stdexcept>

namespace eccsim {

double RunningStat::stddev() const { return std::sqrt(variance()); }

void RunningStat::merge(const RunningStat& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double nt = na + nb;
  m2_ += other.m2_ + delta * delta * na * nb / nt;
  mean_ += delta * nb / nt;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

namespace {

/// Nearest-rank lookup: smallest value with at least p% of samples
/// at or below it.  p = 0 maps to the minimum, p = 100 to the maximum.
double nearest_rank(const std::vector<double>& sorted, double p) {
  p = std::clamp(p, 0.0, 100.0);
  const auto n = sorted.size();
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  return sorted[rank - 1];
}

}  // namespace

QuantileReservoir::QuantileReservoir(std::size_t cap) : cap_(cap) {
  if (cap == 0) {
    throw std::invalid_argument("QuantileReservoir: cap must be > 0");
  }
  heap_.reserve(cap);
}

void QuantileReservoir::add(double value, std::uint64_t key) {
  ++offered_;
  const Item item{key, value};
  if (heap_.size() < cap_) {
    heap_.push_back(item);
    std::push_heap(heap_.begin(), heap_.end());
    sorted_valid_ = false;
    return;
  }
  if (item < heap_.front()) {
    std::pop_heap(heap_.begin(), heap_.end());
    heap_.back() = item;
    std::push_heap(heap_.begin(), heap_.end());
    sorted_valid_ = false;
  }
}

double QuantileReservoir::percentile(double p) const {
  if (heap_.empty()) return 0.0;
  if (!sorted_valid_) {
    sorted_.clear();
    sorted_.reserve(heap_.size());
    for (const Item& it : heap_) sorted_.push_back(it.value);
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
  return nearest_rank(sorted_, p);
}

double relative_ci95(const RunningStat& s) {
  if (s.count() < 2 || s.mean() == 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  const double half_width =
      1.959963985 * s.stddev() / std::sqrt(static_cast<double>(s.count()));
  return half_width / std::fabs(s.mean());
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) {
    if (v <= 0.0) {
      throw std::invalid_argument("geomean: values must be positive");
    }
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double s = 0.0;
  for (double v : values) s += v;
  return s / static_cast<double>(values.size());
}

}  // namespace eccsim
