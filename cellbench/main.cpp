// cellbench: the sweep-cell benchmark.
//
// Times sweep cells from outside, through the calls a figure sweep makes
// for each cell (ecc::make_scheme, sim::SystemSim(...), run()), in one
// process on one thread: a closed loop over the workload's cells in
// workload-major order, after one untimed pass.  Every run() result is
// checked against its cell's reference (cells.hpp); a cell that throws or
// differs counts as failed.
//
//   cellbench --workload W --seed N --seconds S --trace 0|1
//             [--repo DIR] [--out DIR] [--perturb] [--limit-cells N]
//             [--max-passes N] [--emit-expected]
//
// --trace 0 prints the end-to-end metrics, --trace 1 runs traced passes
// and prints the per-layer metrics (README.md has the table).  The last
// stdout line is one JSON object: correct, attempted, failed, metrics.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "cells.hpp"
#include "host_speed.hpp"
#include "probes.hpp"
#include "spans.hpp"
#include "stats/stats.hpp"

namespace cellbench {
namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// set_up() is repeated this many times per run; setup_s takes the
/// median of its times plus the untimed reference pass.
constexpr int kSetupRepeats = 5;
/// Timed passes a run makes at least, whatever --seconds says, so every
/// cell's median time rests on at least this many samples.
constexpr std::size_t kMinTimedPasses = 4;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string repo = ".";
  std::string out = ".bench_build/cellbench/run";
  bool perturb = false;        ///< corrupt one expected value (oracle test)
  std::size_t limit_cells = 0;  ///< 0 = every cell of the workload
  std::size_t max_passes = 0;   ///< 0 = as many as --seconds allows
  bool emit_expected = false;   ///< print live-stimulus reference rows
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "cellbench: %s\n"
               "usage: cellbench --workload W --seed N --seconds S "
               "--trace 0|1 [--repo DIR] [--out DIR] [--perturb]\n"
               "                 [--limit-cells N] [--max-passes N] "
               "[--emit-expected]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value().c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = value() != "0";
    } else if (flag == "--repo") {
      a.repo = value();
    } else if (flag == "--out") {
      a.out = value();
    } else if (flag == "--perturb") {
      a.perturb = true;
    } else if (flag == "--limit-cells") {
      a.limit_cells = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--max-passes") {
      a.max_passes = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--emit-expected") {
      a.emit_expected = true;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  const auto& known = benchmark_workloads();
  if (std::find(known.begin(), known.end(), a.workload) == known.end()) {
    usage("--workload must be bin1_sweep, bin2_sweep or replay_degraded");
  }
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest sample with at least q of all at or below.
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Failed/attempted bookkeeping for every cell run, checked or not.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;

  void fail(const std::string& what) {
    ++failed;
    correct = false;
    if (failed <= 10) std::fprintf(stderr, "cellbench: FAIL %s\n", what.c_str());
  }
  /// Counts one cell run; `why` is empty when it passed.
  void record(const Cell& cell, const std::string& why) {
    ++attempted;
    if (!why.empty()) fail(cell.id + ": " + why);
  }
};

/// Runs the cell with `opts` in place of its own, counting it in `tally`
/// and checking it against the cell's reference.  Returns the result, or
/// nothing if the run threw.
std::optional<sim::RunResult> run_checked(const Cell& cell,
                                          const sim::SimOptions& opts,
                                          Tally& tally) {
  try {
    sim::SystemSim s(cell.scheme, *cell.workload, sim::CpuConfig{}, opts);
    sim::RunResult r = s.run();
    tally.record(cell, check(cell, r));
    return r;
  } catch (const std::exception& e) {
    tally.record(cell, std::string("threw: ") + e.what());
    return std::nullopt;
  }
}

struct Setup {
  std::vector<Cell> cells;
  double seconds = 0;
  double record_s = 0;
};

/// The one-time work before the first cell: record the replay traces (when
/// the workload replays, or the traced run probes the tracefile layer),
/// build the cells, and load the committed references at root seed 1.
Setup set_up(const Args& a, bool record) {
  Setup s;
  const auto t0 = Clock::now();
  const std::string trace_dir = a.out + "/traces";
  if (record) {
    std::filesystem::create_directories(trace_dir);
    const auto r0 = Clock::now();
    record_traces(a.workload, a.seed, trace_dir);
    s.record_s = since(r0);
  }
  s.cells = make_cells(a.workload, a.seed, trace_dir);
  if (a.limit_cells != 0 && a.limit_cells < s.cells.size()) {
    s.cells.resize(a.limit_cells);
  }
  if (a.seed == 1) load_golden(s.cells, a.workload, a.repo);
  s.seconds = since(t0);
  return s;
}

/// Untimed first pass: settles the process (page faults, allocator) and
/// fixes each cell's reference.  A replayed cell first runs its
/// live-stimulus twin, which must match the committed reference where one
/// exists and becomes the reference otherwise, so the replay must equal
/// live generation at every seed.  A live cell without a committed
/// reference adopts this pass's result, which every later run must repeat
/// exactly.  Returns the pass's host seconds.
double reference_pass(std::vector<Cell>& cells, Tally& tally) {
  const auto t0 = Clock::now();
  for (auto& cell : cells) {
    if (!cell.opts.trace_in.empty()) {
      sim::SimOptions live = cell.opts;
      live.trace_in.clear();
      if (const auto r = run_checked(cell, live, tally)) adopt(cell, *r);
    }
    if (const auto r = run_checked(cell, cell.opts, tally)) adopt(cell, *r);
  }
  return since(t0);
}

/// Corrupts one expected value so the oracle must report a failed cell.
void perturb(std::vector<Cell>& cells) {
  if (!cells.empty()) cells.front().expected.row += "1";
}

/// FNV-1a over every cell's reference, in cell order: equal digests from
/// two runs mean their results agreed field for field.
std::uint64_t digest(const std::vector<Cell>& cells) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& cell : cells) {
    for (const std::string* s :
         {&cell.id, &cell.expected.row, &cell.expected.llc}) {
      for (const char ch : *s) {
        h = (h ^ static_cast<unsigned char>(ch)) * 0x100000001b3ULL;
      }
      h = (h ^ 0xff) * 0x100000001b3ULL;
    }
  }
  return h;
}

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "cellbench: metric %s is not finite\n",
                   name.c_str());
      value = -1;
      finite_ = false;
    }
    char buf[512];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  body_.empty() ? "" : ", ", name.c_str(), value,
                  unit.c_str());
    body_ += buf;
  }

  void print(const Tally& tally) const {
    std::printf(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": {%s}}\n",
        tally.correct && finite_ ? "true" : "false",
        static_cast<unsigned long long>(tally.attempted),
        static_cast<unsigned long long>(tally.failed), body_.c_str());
    std::fflush(stdout);
  }

 private:
  std::string body_;
  bool finite_ = true;
};

/// Whether to start another pass: always the first, never beyond
/// --max-passes, else until --seconds have passed and at least
/// `min_passes` passes have run.
bool keep_going(const Args& a, std::size_t passes, std::size_t min_passes,
                Clock::time_point start) {
  if (passes == 0) return true;
  if (a.max_passes != 0 && passes >= a.max_passes) return false;
  return since(start) < a.seconds || passes < min_passes;
}

// --- end-to-end run (--trace 0) ---------------------------------------------

void run_timed(const Args& a) {
  std::vector<double> setups;
  Setup s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    s = set_up(a, replays(a.workload));
    setups.push_back(s.seconds);
  }
  std::vector<Cell>& cells = s.cells;
  Tally tally;
  const double setup_s = median(setups) + reference_pass(cells, tally);
  if (a.perturb) perturb(cells);

  // times[i] holds cell i's timed samples, one per pass, rescaled to the
  // reference host by the speed loops run just before and just after the
  // cell (host_speed.hpp); raw[i] the same in plain host seconds.
  HostSpeed speed;
  double loop_before = speed.measure();  // also warms the loop's tables
  std::vector<std::vector<double>> times(cells.size());
  std::vector<std::vector<double>> raw(cells.size());
  std::vector<double> loops;
  std::size_t passes = 0;
  const auto start = Clock::now();
  while (keep_going(a, passes, kMinTimedPasses, start)) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Cell& cell = cells[i];
      std::optional<sim::RunResult> r;
      std::string why;
      const auto c0 = Clock::now();
      try {
        sim::SystemSim sim(cell.scheme, *cell.workload, sim::CpuConfig{},
                           cell.opts);
        r = sim.run();
      } catch (const std::exception& e) {
        why = std::string("threw: ") + e.what();
      }
      const double host_s = since(c0);
      const double loop_after = speed.measure();
      times[i].push_back(
          HostSpeed::rescale(host_s, 0.5 * (loop_before + loop_after)));
      raw[i].push_back(host_s);
      loops.push_back(loop_after);
      loop_before = loop_after;
      tally.record(cell, r ? check(cell, *r) : why);
    }
    ++passes;
  }

  // A cell's cost is its median over the timed passes (README.md: the
  // simulator is deterministic, so what varies between passes is the host).
  std::vector<double> cell_s;
  double sweep_s = 0;
  double raw_sweep_s = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    cell_s.push_back(median(times[i]));
    sweep_s += cell_s.back();
    raw_sweep_s += median(raw[i]);
  }
  // Set-up ran before any speed loop; rescale it by the run's median.
  const double loop_s = median(loops);
  std::fprintf(stderr,
               "cellbench: %s seed %llu: %zu cells x %zu timed passes = %zu "
               "cell samples; host seconds: sweep %.4f, set-up %.4f; speed "
               "loop %.5f s (reference %.3f s); results_digest=%016llx\n",
               a.workload.c_str(), static_cast<unsigned long long>(a.seed),
               cells.size(), passes, loops.size(), raw_sweep_s, setup_s,
               loop_s, HostSpeed::kReferenceSeconds,
               static_cast<unsigned long long>(digest(cells)));

  Report rep;
  rep.add("setup_s", HostSpeed::rescale(setup_s, loop_s), "s");
  rep.add("sweep_s", sweep_s, "s");
  rep.add("cell_s_p50", median(cell_s), "s");
  rep.add("cell_s_p90", quantile(cell_s, 0.9), "s");
  rep.add("peak_rss_mb",
          static_cast<double>(stats::process_peak_rss_bytes()) / (1 << 20),
          "MB");
  rep.print(tally);
}

// --- traced run (--trace 1) -------------------------------------------------

/// Per-pass sums over the traced cells.
struct LayerSums {
  double cell_s = 0;
  double construct_s = 0;
  double warmup_s = 0;
  double measured_s = 0;
  double warmup_ops = 0;
  double instructions = 0;
  double mem_cycles = 0;
  double llc_hits = 0;
  double llc_misses = 0;
  double llc_writebacks = 0;
  double dram_requests = 0;
  double dram_ecc_requests = 0;
  double trace_s = 0;
  double trace_ops = 0;
  double tracefile_s = 0;
  double tracefile_ops = 0;
  double cache_s = 0;
  double cache_ops = 0;
  double cache_hit_rate = 0;  ///< summed over cells; divided at the end
  double replay_s = 0;
  double replay_ticks = 0;
  double replay_idle_ticks = 0;
  double replay_requests = 0;
  double replay_rejects = 0;
  double cells = 0;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

/// The per-layer metrics of one traced pass (README.md maps each to the
/// end-to-end metric it should move).  `untraced_pass_s` is the same
/// cells' untraced pass time, the base of the tracing overhead.
std::vector<Metric> layer_metrics(const LayerSums& p, double untraced_pass_s) {
  return {
      {"sim.construct_ms", 1e3 * ratio(p.construct_s, p.cells), "ms"},
      {"sim.warmup_s", p.warmup_s, "s"},
      {"sim.warmup_ns_per_op", 1e9 * ratio(p.warmup_s, p.warmup_ops), "ns"},
      {"sim.warmup_share", ratio(p.warmup_s, p.cell_s), "ratio"},
      {"sim.measured_s", p.measured_s, "s"},
      {"sim.measured_ns_per_mem_cycle", 1e9 * ratio(p.measured_s, p.mem_cycles),
       "ns"},
      {"sim.instructions", p.instructions, "count"},
      {"sim.mem_cycles", p.mem_cycles, "count"},
      {"trace.next_ns", 1e9 * ratio(p.trace_s, p.trace_ops), "ns"},
      {"tracefile.next_ns", 1e9 * ratio(p.tracefile_s, p.tracefile_ops), "ns"},
      {"cache.access_ns", 1e9 * ratio(p.cache_s, p.cache_ops), "ns"},
      {"cache.hit_rate", ratio(p.cache_hit_rate, p.cells), "ratio"},
      {"llc.hits", p.llc_hits, "count"},
      {"llc.misses", p.llc_misses, "count"},
      {"llc.writebacks", p.llc_writebacks, "count"},
      {"dram.requests", p.dram_requests, "count"},
      {"dram.ecc_requests", p.dram_ecc_requests, "count"},
      {"dram.ecc_share", ratio(p.dram_ecc_requests, p.dram_requests), "ratio"},
      {"dram.replay_ns_per_tick", 1e9 * ratio(p.replay_s, p.replay_ticks), "ns"},
      {"dram.replay_ns_per_request", 1e9 * ratio(p.replay_s, p.replay_requests),
       "ns"},
      {"dram.idle_tick_share", ratio(p.replay_idle_ticks, p.replay_ticks),
       "ratio"},
      {"dram.enqueue_rejects", p.replay_rejects, "count"},
      {"bench.trace_overhead_ratio", ratio(p.cell_s, untraced_pass_s), "ratio"},
  };
}

/// One traced cell: the cell itself (construct + run, as timed in the
/// end-to-end run), then each layer probed from outside.
void trace_cell(const Cell& cell, const Args& a, Spans& spans, Tally& tally,
                LayerSums& sum) {
  sim::RunResult result;
  double run_s = 0;
  {
    Scope root(spans, "cell", Spans::kNoParent, cell.id);
    std::optional<sim::SystemSim> sim;
    try {
      {
        Scope c(spans, "sim.construct", root.index(), cell.id);
        sim.emplace(cell.scheme, *cell.workload, sim::CpuConfig{}, cell.opts);
        sum.construct_s += c.stop();
      }
      Scope r(spans, "sim.run", root.index(), cell.id);
      result = sim->run();
      run_s = r.stop();
      r.set_work(result.mem_cycles);
    } catch (const std::exception& e) {
      tally.record(cell, std::string("threw: ") + e.what());
      return;
    }
    sum.cell_s += root.stop();
  }
  // The traced run must reproduce the end-to-end run's results exactly.
  tally.record(cell, check(cell, result));
  sum.cells += 1;
  sum.instructions += static_cast<double>(result.instructions);
  sum.mem_cycles += static_cast<double>(result.mem_cycles);
  sum.llc_hits += static_cast<double>(result.llc.hits);
  sum.llc_misses += static_cast<double>(result.llc.misses);
  sum.llc_writebacks += static_cast<double>(result.llc.writebacks);
  sum.dram_requests += static_cast<double>(result.mem.reads + result.mem.writes);
  sum.dram_ecc_requests +=
      static_cast<double>(result.mem.ecc_reads + result.mem.ecc_writes);

  Scope layers(spans, "layers", Spans::kNoParent, cell.id);
  const std::size_t parent = layers.index();
  try {
    // Warm-up twin: the same cell with no measured phase.
    sim::SimOptions twin_opts = cell.opts;
    twin_opts.target_instructions = 0;
    sim::SystemSim twin(cell.scheme, *cell.workload, sim::CpuConfig{},
                        twin_opts);
    {
      Scope w(spans, "sim.warmup", parent, cell.id);
      (void)twin.run();
      const double warm = w.stop();
      w.set_work(warmup_ops_per_core() * sim::CpuConfig{}.cores);
      sum.warmup_s += warm;
      sum.warmup_ops += static_cast<double>(warmup_ops_per_core() *
                                            sim::CpuConfig{}.cores);
      sum.measured_s += std::max(0.0, run_s - warm);
    }
  } catch (const std::exception& e) {
    tally.fail(cell.id + " warm-up twin threw: " + e.what());
  }

  // Checked run: records the post-LLC request stream (observation only)
  // with the DRAM protocol checker attached, so a timing violation fails
  // the cell; its result must still equal the reference.
  const std::string post = a.out + "/post.ecctrace";
  {
    Scope c(spans, "sim.checked_run", parent, cell.id);
    sim::SimOptions opts = cell.opts;
    opts.trace_out = post;
    opts.trace_point = tracefile::CapturePoint::kPostLlc;
    opts.protocol_check = true;
    const auto checked = run_checked(cell, opts, tally);
    if (!checked) return;
    c.set_work(checked->mem.reads + checked->mem.writes);
  }
  std::vector<tracefile::PostOp> post_ops;
  {
    Scope r(spans, "tracefile.post_read", parent, cell.id);
    post_ops = read_post_trace(post);
    r.set_work(post_ops.size());
  }
  {
    Scope d(spans, "dram.replay", parent, cell.id);
    const DramReplay rep = replay_dram(cell.scheme, post_ops);
    d.set_work(rep.ticks);
    sum.replay_s += rep.seconds;
    sum.replay_ticks += static_cast<double>(rep.ticks);
    sum.replay_idle_ticks += static_cast<double>(rep.idle_ticks);
    sum.replay_requests += static_cast<double>(rep.requests);
    sum.replay_rejects += static_cast<double>(rep.rejects);
  }

  Stream live;
  {
    Scope t(spans, "trace.next", parent, cell.id);
    live = synthetic_stream(*cell.workload, cell.opts.seed);
    t.set_work(live.ops.size());
    sum.trace_s += live.seconds;
    sum.trace_ops += static_cast<double>(live.ops.size());
  }
  {
    Scope t(spans, "tracefile.next", parent, cell.id);
    const Stream replayed =
        replay_stream(a.out + "/traces/" + cell.workload->name + ".ecctrace");
    t.set_work(replayed.ops.size());
    sum.tracefile_s += replayed.seconds;
    sum.tracefile_ops += static_cast<double>(replayed.ops.size());
    const bool same = std::equal(
        live.ops.begin(), live.ops.end(), replayed.ops.begin(),
        replayed.ops.end(), [](const trace::MemOp& x, const trace::MemOp& y) {
          return x.line == y.line && x.is_write == y.is_write && x.gap == y.gap;
        });
    if (!same) tally.fail(cell.id + ": replayed stimulus != live stimulus");
  }
  {
    Scope c(spans, "cache.access", parent, cell.id);
    const CacheRun run = cache_access(live.ops);
    c.set_work(live.ops.size());
    sum.cache_s += run.seconds;
    sum.cache_ops += static_cast<double>(live.ops.size());
    sum.cache_hit_rate += run.hit_rate;
  }
}

void run_traced(const Args& a) {
  std::vector<double> records;
  Setup s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    s = set_up(a, true);
    records.push_back(s.record_s);
  }
  std::vector<Cell>& cells = s.cells;
  Tally tally;
  reference_pass(cells, tally);
  if (a.perturb) perturb(cells);

  // One untraced pass in this process: the baseline of the tracing
  // overhead.
  const auto b0 = Clock::now();
  for (const auto& cell : cells) (void)run_checked(cell, cell.opts, tally);
  const double untraced_pass_s = since(b0);

  Spans spans;
  std::vector<LayerSums> passes;
  const auto start = Clock::now();
  while (keep_going(a, passes.size(), 1, start)) {
    LayerSums sum;
    for (const auto& cell : cells) trace_cell(cell, a, spans, tally, sum);
    passes.push_back(sum);
  }

  // Telemetry cost: one cell per paper workload, lotecc5+parity (the
  // paper's proposal), with and without a stats::Collector attached.
  double plain_s = 0;
  double collected_s = 0;
  for (const auto& name : paper_workloads_of(a.workload)) {
    const auto it = std::find_if(cells.begin(), cells.end(), [&](const Cell& c) {
      return c.workload->name == name && c.scheme.name == "lotecc5+parity";
    });
    if (it == cells.end()) continue;
    const Cell& cell = *it;
    Scope root(spans, "stats", Spans::kNoParent, cell.id);
    {
      Scope p(spans, "stats.plain", root.index(), cell.id);
      (void)run_checked(cell, cell.opts, tally);
      plain_s += p.stop();
    }
    {
      stats::Config cfg;
      cfg.enabled = true;
      stats::Collector collector(cfg);
      sim::SimOptions opts = cell.opts;
      opts.stats = &collector;
      Scope c(spans, "stats.collected", root.index(), cell.id);
      (void)run_checked(cell, opts, tally);
      collected_s += c.stop();
    }
  }

  std::fprintf(stderr,
               "cellbench: %s seed %llu: %zu cells x %zu traced passes, "
               "results_digest=%016llx\n",
               a.workload.c_str(), static_cast<unsigned long long>(a.seed),
               cells.size(), passes.size(),
               static_cast<unsigned long long>(digest(cells)));
  std::fprintf(stderr, "cellbench: self time per span (all traced passes)\n");
  for (const auto& t : spans.self_times()) {
    std::fprintf(stderr,
                 "  %-22s n=%-6llu work=%-12llu total %9.4f s  self %9.4f s\n",
                 t.name.c_str(), static_cast<unsigned long long>(t.count),
                 static_cast<unsigned long long>(t.work), t.total_s, t.self_s);
  }
  const std::string spans_path = a.out + "/spans_" + a.workload + "_seed" +
                                 std::to_string(a.seed) + ".json";
  if (!spans.write(spans_path)) {
    tally.fail("cannot write " + spans_path);
  } else {
    std::fprintf(stderr, "cellbench: spans written to %s\n",
                 spans_path.c_str());
  }

  Report rep;
  std::vector<std::vector<Metric>> rows;
  for (const auto& p : passes) rows.push_back(layer_metrics(p, untraced_pass_s));
  for (std::size_t i = 0; i < rows.front().size(); ++i) {
    std::vector<double> v;
    for (const auto& row : rows) v.push_back(row[i].value);
    rep.add(rows.front()[i].name, median(v), rows.front()[i].unit);
  }
  rep.add("tracefile.record_s", median(records), "s");
  rep.add("stats.overhead_ratio", ratio(collected_s, plain_s), "ratio");
  rep.print(tally);
}

/// Prints each cell's live-stimulus reference row (the format of
/// expected/<workload>.csv).
void emit_expected(const Args& a) {
  std::printf("# cellbench expected results: %s, root seed %llu, live "
              "stimulus\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed));
  for (const auto& cell : make_cells(a.workload, a.seed, a.out)) {
    sim::SimOptions live = cell.opts;
    live.trace_in.clear();
    sim::SystemSim sim(cell.scheme, *cell.workload, sim::CpuConfig{}, live);
    const sim::RunResult r = sim.run();
    std::printf("%s,%s,%s\n", cell.id.c_str(), result_row(r).c_str(),
                llc_row(r).c_str());
  }
}

}  // namespace
}  // namespace cellbench

int main(int argc, char** argv) {
  using namespace cellbench;
  const Args a = parse(argc, argv);
  try {
    std::filesystem::create_directories(a.out);
    if (a.emit_expected) {
      emit_expected(a);
    } else if (a.trace) {
      run_traced(a);
    } else {
      run_timed(a);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cellbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
