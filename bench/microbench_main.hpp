// The main() of the google-benchmark microbenches: besides the console
// table, each run lands in results/<name>.json (results/smoke/ under
// --smoke) with the run manifest as its `metadata`.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace eccsim::bench {

/// Console reporter that also keeps each run, so microbench_main can write
/// the summary without --benchmark_out plumbing.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const auto& r : runs) captured_.push_back(r);
  }
  const std::vector<Run>& captured() const { return captured_; }

 private:
  std::vector<Run> captured_;
};

inline double counter_or_zero(const benchmark::UserCounters& counters,
                              const char* name) {
  const auto it = counters.find(name);
  return it != counters.end() ? static_cast<double>(it->second) : 0.0;
}

/// Runs the registered benchmarks and writes results/<name>.json: per run
/// its name, iterations, real time, items/s as `items_field` and MB/s.
/// google-benchmark takes its --benchmark_* flags first; bench::init then
/// parses the rest (--smoke, ...) and rejects any it does not know.
inline int microbench_main(const std::string& name,
                           const char* items_field, int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  init(argc, argv);
  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  runner::Json doc = runner::Json::object();
  runner::Json runs = runner::Json::array();
  for (const auto& r : reporter.captured()) {
    runner::Json run = runner::Json::object();
    run.set("name", r.benchmark_name());
    run.set("iterations", static_cast<std::uint64_t>(r.iterations));
    run.set("real_time_s", r.real_accumulated_time);
    run.set(items_field, counter_or_zero(r.counters, "items_per_second"));
    run.set("mb_per_second",
            counter_or_zero(r.counters, "bytes_per_second") /
                (1024.0 * 1024.0));
    runs.push_back(std::move(run));
  }
  doc.set("runs", runs);
  emit_json(name, doc);
  return 0;
}

}  // namespace eccsim::bench
