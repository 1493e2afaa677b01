// Simulator-wide observability: a hierarchical stat registry with stable
// dotted paths ("dram.ch0.bank3.acts"), epoch-delta time series, and the
// per-run Collector that bundles a registry with an optional Chrome-trace
// Tracer (stats/trace.hpp) and the scoped profiler (stats/scope.hpp).
//
// Design constraints (docs/OBSERVABILITY.md):
//   - Observation only.  Nothing registered here may feed back into
//     simulation state, so enabling stats never changes a simulated
//     result -- at any thread count.
//   - Allocation-light hot path.  Components resolve Counter/Histogram
//     pointers once at attach time (pointers are stable for the life of
//     the registry); the per-event cost is one increment.  Stats that a
//     component already accumulates for its functional results (energy,
//     read counts) are registered as polled gauges instead, so the hot
//     path is not touched twice.
//   - Per-worker ownership with merge-on-finalize.  A Registry is
//     single-threaded by design; the parallel sweep gives every cell its
//     own Collector and merges/serializes on the main thread after the
//     fan-out, which keeps the bit-identical-results guarantee of the
//     runner intact.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace eccsim::stats {

/// Monotone event counter.  The only hot-path push stat: one increment.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Monotone floating-point accumulator (e.g. picojoules).
class Accum {
 public:
  void add(double x) { value_ += x; }
  double value() const { return value_; }

 private:
  double value_ = 0;
};

/// Count / sum / min / max summary of a stream of samples.
class Distribution {
 public:
  void add(double x);
  void merge(const Distribution& other);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }

 private:
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

/// Fixed-width linear histogram over [lo, hi); out-of-range samples clamp
/// into the edge bins so no mass is silently dropped.  Supports
/// interpolated percentile queries for the end-of-run report.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  void merge(const Histogram& other);

  /// Interpolated percentile, p in [0, 100]; 0 when empty.
  double percentile(double p) const;

  double lo() const { return lo_; }
  double hi() const { return hi_; }
  std::uint64_t total() const { return total_; }
  const std::vector<std::uint64_t>& bins() const { return counts_; }

 private:
  double lo_, hi_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// The stat registry: a flat namespace of dotted paths.
///
/// Counters, accums, and gauges are *sampled* stats: sample_epoch()
/// records their delta since the previous epoch into an in-memory time
/// series.  Distributions and histograms are cumulative only.
///
/// Registration is create-or-get: asking for an existing path of the same
/// kind returns the existing stat; asking for an existing path of a
/// different kind throws std::invalid_argument (path uniqueness).
class Registry {
 public:
  enum class Kind : std::uint8_t {
    kCounter,
    kAccum,
    kGauge,
    kDistribution,
    kHistogram,
  };

  /// Polled cumulative value; called with the current simulation cycle at
  /// every epoch sample and once at finalize().
  using GaugeFn = std::function<double(std::uint64_t cycle)>;

  Counter* counter(const std::string& path);
  Accum* accum(const std::string& path);
  Distribution* distribution(const std::string& path);
  Histogram* histogram(const std::string& path, double lo, double hi,
                       std::size_t bins);
  /// Registers a polled gauge.  Re-registering an existing gauge path
  /// replaces its poll function (the series continues).
  void gauge(const std::string& path, GaugeFn poll);

  bool has(const std::string& path) const { return index_.count(path) != 0; }
  std::size_t size() const { return entries_.size(); }

  /// Current cumulative value of a sampled stat (counter/accum/gauge);
  /// throws std::out_of_range for unknown paths, std::invalid_argument
  /// for distributions/histograms.
  double value(const std::string& path, std::uint64_t cycle = 0) const;

  // --- epoch time series --------------------------------------------------
  /// Epoch length in cycles; 0 (default) disables epoch bookkeeping.
  void set_epoch_cycles(std::uint64_t cycles) { epoch_cycles_ = cycles; }
  std::uint64_t epoch_cycles() const { return epoch_cycles_; }

  /// Snapshots the delta of every sampled stat since the previous sample.
  /// `cycle` is recorded as the epoch's end mark (marks need not be
  /// equally spaced; the final, partial epoch is shorter).
  void sample_epoch(std::uint64_t cycle);

  /// End cycle of each recorded epoch, in order.
  const std::vector<std::uint64_t>& epoch_marks() const { return marks_; }
  /// Per-epoch deltas for one sampled stat; nullptr if the path is
  /// unknown or not a sampled kind.
  const std::vector<double>* epoch_series(const std::string& path) const;

  /// Attaches an externally computed per-epoch series (derived metrics
  /// such as per-channel bandwidth); overwrites on duplicate path.
  void add_series(const std::string& path, std::vector<double> values);
  const std::vector<std::pair<std::string, std::vector<double>>>& series()
      const {
    return series_;
  }

  /// Records the final (possibly partial) epoch if cycles advanced since
  /// the last sample, stores every gauge's final value, and releases the
  /// gauge poll functions.  After finalize() the registry is pure data:
  /// it may outlive the components its gauges referenced.
  void finalize(std::uint64_t cycle);
  bool finalized() const { return finalized_; }

  /// Merges another registry's push stats into this one by path: counters
  /// and accums sum, distributions and histograms merge.  Gauges, epoch
  /// series, and derived series are per-run artifacts and are skipped.
  /// Merging is order-independent (commutative and associative), so a
  /// 1-thread and an N-thread reduction produce identical values.
  /// Throws std::invalid_argument on a path registered with different
  /// kinds (or different histogram shapes) in the two registries.
  void merge(const Registry& other);

  // --- read access for serializers ----------------------------------------
  struct EntryView {
    const std::string* path;
    Kind kind;
    double value;  ///< final cumulative value (sampled kinds)
    const std::vector<double>* epochs;  ///< sampled kinds; may be empty
    const Distribution* dist;           ///< kDistribution only
    const Histogram* hist;              ///< kHistogram only
  };
  /// One view per registered stat, in registration order.  Gauge values
  /// require finalize() to have run (0.0 before that).
  std::vector<EntryView> view() const;

 private:
  struct Entry {
    std::string path;
    Kind kind;
    std::size_t slot;  ///< index into the kind's storage deque
    double last_sample = 0;         ///< previous epoch's cumulative value
    double final_value = 0;         ///< set by finalize() (gauges)
    std::vector<double> epoch_deltas;
  };

  Entry& add_entry(const std::string& path, Kind kind, std::size_t slot);
  const Entry* find(const std::string& path) const;
  double current(const Entry& e, std::uint64_t cycle) const;
  bool sampled(Kind k) const {
    return k == Kind::kCounter || k == Kind::kAccum || k == Kind::kGauge;
  }

  std::vector<Entry> entries_;
  std::unordered_map<std::string, std::size_t> index_;

  // Stable storage: components keep raw pointers into these deques.
  std::deque<Counter> counters_;
  std::deque<Accum> accums_;
  std::deque<GaugeFn> gauges_;
  std::deque<Distribution> distributions_;
  std::deque<Histogram> histograms_;

  std::uint64_t epoch_cycles_ = 0;
  std::vector<std::uint64_t> marks_;
  std::vector<std::pair<std::string, std::vector<double>>> series_;
  bool finalized_ = false;
};

class Tracer;

/// Observability knobs for one run (the bench front-end fills them from
/// --stats, --stats-epoch, --trace and their environment variables).
struct Config {
  bool enabled = false;
  std::uint64_t epoch_cycles = 10'000;  ///< memory cycles per epoch
  std::string trace_dir;  ///< Chrome trace files go here; empty = off
  std::uint64_t trace_limit = 200'000;  ///< events before rate-limiting
};

/// Everything one simulation run collects: a registry, an optional
/// tracer, and the (workload, scheme) label of the cell that produced it.
/// Single-owner: exactly one worker drives a Collector at a time.
class Collector {
 public:
  explicit Collector(const Config& cfg);
  ~Collector();

  const Config& config() const { return cfg_; }
  Registry& registry() { return registry_; }
  const Registry& registry() const { return registry_; }

  /// Creates the tracer writing to `path` (rate limit from the config).
  /// No-op if a tracer is already open.
  void open_trace(const std::string& path);
  Tracer* tracer() { return tracer_.get(); }

  void set_label(std::string workload, std::string scheme) {
    workload_ = std::move(workload);
    scheme_ = std::move(scheme);
  }
  const std::string& workload() const { return workload_; }
  const std::string& scheme() const { return scheme_; }

 private:
  Config cfg_;
  Registry registry_;
  std::unique_ptr<Tracer> tracer_;
  std::string workload_;
  std::string scheme_;
};

/// Peak resident set size of this process in bytes (0 where unsupported).
std::uint64_t process_peak_rss_bytes();

}  // namespace eccsim::stats
