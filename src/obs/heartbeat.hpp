// Live heartbeat/progress reporter for long-running drivers.
//
// A long Monte Carlo run or full-fidelity sweep used to be a black box
// until it exited.  The heartbeat publishes a machine-readable status
// snapshot -- a single JSON document, replaced atomically via
// write-to-temp-then-rename so a polling reader can never observe a torn
// file -- plus an optional human-readable stderr progress line.  Every
// long-running driver (the runner fan-out, the MC engine's chunk merges,
// tracetool's record/validate loops) ticks the process-global instance;
// `benchtool watch FILE` renders the snapshots.
//
// Strictly observation-only: ticks never feed back into simulation state,
// so enabling the heartbeat cannot change any simulated result.  Off by
// default; configured from the environment (the bench front-end layers
// its --status / --progress flags on top and calls configure()):
//   ECCSIM_STATUS=FILE          write status snapshots to FILE
//   ECCSIM_PROGRESS=1           print a \r progress line to stderr
//   ECCSIM_STATUS_INTERVAL_MS=N min milliseconds between snapshots
//                               (default 200; first and final ticks of a
//                               phase always publish)
//
// Snapshot schema ("eccsim.heartbeat/1", see docs/OBSERVABILITY.md):
//   schema, pid, tool, phase, seq       identity; seq increments per write
//   timestamp_utc, elapsed_seconds, phase_elapsed_seconds
//   done, total                        items finished / planned (monotone
//                                      within a phase)
//   throughput_per_s, eta_seconds      derived; null until measurable
//   rel_ci, rel_ci_series              MC convergence (null / [] outside
//                                      Monte Carlo phases)
//   counters                           per-subsystem counters, by name
//   peak_rss_bytes, final
#pragma once

#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace eccsim::obs {

struct HeartbeatConfig {
  std::string status_path;  ///< "" = no status file
  bool stderr_line = false;
  std::uint64_t min_interval_ms = 200;
};

class Heartbeat {
 public:
  /// One progress observation.  `rel_ci` is the current relative 95% CI
  /// half-width of a converging Monte Carlo estimate (NaN = not
  /// applicable); `force` bypasses the interval throttle.
  struct Tick {
    std::string phase;
    std::uint64_t done = 0;
    std::uint64_t total = 0;
    double rel_ci = std::numeric_limits<double>::quiet_NaN();
    std::vector<std::pair<std::string, double>> counters;
    bool force = false;
  };

  Heartbeat() = default;  ///< disabled
  explicit Heartbeat(HeartbeatConfig cfg) : cfg_(std::move(cfg)) {}

  /// False when neither output is configured; callers should skip any
  /// work needed to assemble a Tick in that case.
  bool enabled() const {
    return !cfg_.status_path.empty() || cfg_.stderr_line;
  }
  const HeartbeatConfig& config() const { return cfg_; }

  /// Replaces the configuration; call before the first tick.
  void configure(HeartbeatConfig cfg) { cfg_ = std::move(cfg); }

  /// Names the process in snapshots (bench binary name).
  void set_tool(std::string name);

  /// Publishes a snapshot, subject to the interval throttle.  The first
  /// and final (`done >= total`) ticks of a phase always publish.
  /// Thread-safe; ticks from concurrent drivers interleave by phase.
  void tick(const Tick& t);

  std::uint64_t snapshots_written() const;

  /// The process-global heartbeat, configured on first use from
  /// ECCSIM_STATUS / ECCSIM_PROGRESS / ECCSIM_STATUS_INTERVAL_MS.
  static Heartbeat& global();

 private:
  std::string render_json(const Tick& t, double now) const;

  HeartbeatConfig cfg_;
  mutable std::mutex mu_;
  std::string tool_ = "eccsim";
  std::string phase_;
  double start_ = -1.0;        ///< first-tick monotonic time
  double phase_start_ = -1.0;  ///< current phase's first-tick time
  double last_write_ = -1.0;
  std::uint64_t seq_ = 0;
  std::vector<double> rel_ci_series_;  ///< bounded, current phase only
};

/// Writes `content` to `path` through a same-directory temporary file and
/// std::rename, creating parent directories.  A concurrent reader sees
/// either the previous document or the new one, never a mix.
bool atomic_write_file(const std::string& path, const std::string& content);

}  // namespace eccsim::obs
