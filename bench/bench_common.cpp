#include "bench_common.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "gf/kernels.hpp"
#include "obs/heartbeat.hpp"
#include "obs/manifest.hpp"
#include "obs/openmetrics.hpp"
#include "obs/run_info.hpp"
#include "runner/stats_json.hpp"
#include "runner/thread_pool.hpp"
#include "stats/scope.hpp"
#include "stats/stats.hpp"
#include "stats/trace.hpp"

namespace eccsim::bench {

namespace {

// Per-workload stimulus seeds come from trace::paper_sweep_seed: substreams
// of root seed 1, so every scheme observes the same stimulus for a given
// workload (the comparisons in Figs. 10-17 are paired) while distinct
// workloads get statistically independent streams.  tracetool records with
// the same function, which is what makes recorded traces replay
// bit-identically into these sweeps.

// Process start, approximated at static-init time; emit() reports elapsed
// wall-clock relative to it.
const std::chrono::steady_clock::time_point kProcessStart =
    std::chrono::steady_clock::now();

RunConfig g_config;
std::string g_bench_name = "bench";

bool smoke_mode() { return g_config.fidelity == RunConfig::Fidelity::kSmoke; }

std::string fidelity_name() {
  switch (g_config.fidelity) {
    case RunConfig::Fidelity::kFull: return "full";
    case RunConfig::Fidelity::kQuick: return "quick";
    case RunConfig::Fidelity::kSmoke: return "smoke";
  }
  return "full";
}

/// Output directory: a full-fidelity DDR3 run writes straight into `base`;
/// every other run gets `base/[ddr4/|ddr5/][quick/|smoke/]`, so it never
/// overwrites the committed goldens.
std::string out_dir(const std::string& base) {
  std::string dir = base;
  if (g_config.dram != dram::Generation::kDdr3) {
    dir += "/" + dram::to_string(g_config.dram);
  }
  if (g_config.fidelity != RunConfig::Fidelity::kFull) {
    dir += "/" + fidelity_name();
  }
  return dir;
}

std::string scale_name(ecc::SystemScale scale) {
  return scale == ecc::SystemScale::kQuadEquivalent ? "quad" : "dual";
}

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "%s: %s\n", g_bench_name.c_str(), message.c_str());
  std::exit(2);
}

/// `v` as an unsigned number, or `fallback` when it is not one.
std::uint64_t parse_u64(const std::string& v, std::uint64_t fallback) {
  char* end = nullptr;
  const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
  return !v.empty() && *end == '\0' ? n : fallback;
}

/// Applies one setting, named by its environment variable, to `cfg`.
/// `source` (the flag or variable the value came from) names it in errors.
void apply(RunConfig& cfg, const std::string& var, const std::string& v,
           const std::string& source) {
  const bool on = v != "0";
  if (var == "ECCSIM_STATS") {
    cfg.stats.enabled = on;
  } else if (var == "STATS_EPOCH") {
    cfg.stats.epoch_cycles = parse_u64(v, 0);
    if (source == "--stats-epoch") cfg.stats.enabled = true;
  } else if (var == "STATS_TRACE") {
    cfg.stats.trace_dir = v;
    if (!v.empty()) cfg.stats.enabled = true;  // tracing implies stats
  } else if (var == "STATS_TRACE_LIMIT") {
    cfg.stats.trace_limit = parse_u64(v, cfg.stats.trace_limit);
  } else if (var == "ECCSIM_QUICK") {
    if (on) cfg.fidelity = RunConfig::Fidelity::kQuick;
  } else if (var == "ECCSIM_SMOKE") {
    if (on) cfg.fidelity = RunConfig::Fidelity::kSmoke;
  } else if (var == "ECCSIM_DRAM") {
    const auto gen = dram::parse_generation(v);
    if (!gen) {
      usage_error(source + " must be ddr3, ddr4, or ddr5, got '" + v + "'");
    }
    cfg.dram = *gen;
  } else if (var == "ECCSIM_MC_SYSTEMS") {
    cfg.mc_systems = static_cast<unsigned>(parse_u64(v, 0));
  } else if (var == "ECCSIM_MC_CHUNK") {
    cfg.mc.chunk_size = static_cast<unsigned>(parse_u64(v, 0));
  } else if (var == "ECCSIM_MC_TARGET_REL_CI") {
    cfg.mc.target_rel_ci = std::strtod(v.c_str(), nullptr);
  } else if (var == "ECCSIM_MC_CHECKPOINT") {
    cfg.mc.checkpoint_path = v;
  } else if (var == "ECCSIM_TRACE_IN") {
    cfg.trace_in = v;
  } else if (var == "ECCSIM_TRACE_OUT") {
    cfg.trace_out = v;
  } else if (var == "ECCSIM_TRACE_POINT") {
    if (v == "pre") {
      cfg.trace_point = tracefile::CapturePoint::kPreLlc;
    } else if (v == "post") {
      cfg.trace_point = tracefile::CapturePoint::kPostLlc;
    } else {
      usage_error(source + " must be 'pre' or 'post', got '" + v + "'");
    }
  } else if (var == "ECCSIM_STATUS") {
    cfg.heartbeat.status_path = v;
  } else if (var == "ECCSIM_PROGRESS") {
    cfg.heartbeat.stderr_line = on;
  } else if (var == "ECCSIM_STATUS_INTERVAL_MS") {
    cfg.heartbeat.min_interval_ms = parse_u64(v, cfg.heartbeat.min_interval_ms);
  }
}

/// Every flag and the environment variable it overrides.  A switch
/// (no metavar) sets its variable to 1.
struct Flag {
  const char* name;
  const char* var;
  const char* metavar;  ///< nullptr = switch
  const char* help;
};
constexpr Flag kFlags[] = {
    {"--stats", "ECCSIM_STATS", nullptr,
     "stats registry, epoch series, results/<bench>.stats.json, profiler"},
    {"--stats-epoch", "STATS_EPOCH", "N",
     "memory cycles per epoch (implies --stats; 10000, or 500 with --smoke)"},
    {"--trace", "STATS_TRACE", "DIR",
     "one Chrome trace-event file per sweep cell in DIR (implies --stats)"},
    {"--quick", "ECCSIM_QUICK", nullptr,
     "reduced fidelity (200k instructions per cell), outputs in quick/"},
    {"--smoke", "ECCSIM_SMOKE", nullptr,
     "CI size (50k instructions per cell), outputs in smoke/"},
    {"--dram", "ECCSIM_DRAM", "G",
     "ddr3 (default), ddr4, or ddr5; non-ddr3 outputs go to ddr4/ or ddr5/"},
    {"--mc-systems", "ECCSIM_MC_SYSTEMS", "N",
     "Monte Carlo system budget (overrides the fidelity scaling)"},
    {"--mc-chunk", "ECCSIM_MC_CHUNK", "N",
     "MC systems per chunk (results are identical for any value)"},
    {"--mc-target-rel-ci", "ECCSIM_MC_TARGET_REL_CI", "X",
     "stop MC runs once the relative 95% CI half-width reaches X"},
    {"--mc-checkpoint", "ECCSIM_MC_CHECKPOINT", "FILE",
     "append completed MC chunks to FILE and skip them on rerun"},
    {"--trace-in", "ECCSIM_TRACE_IN", "DIR",
     "replay sweep stimulus from DIR/<workload>[_<scheme>].ecctrace"},
    {"--trace-out", "ECCSIM_TRACE_OUT", "DIR",
     "record each sweep cell's stimulus to DIR/<workload>_<scheme>.ecctrace"},
    {"--trace-point", "ECCSIM_TRACE_POINT", "P",
     "--trace-out capture point: pre (replayable, default) or post"},
    {"--status", "ECCSIM_STATUS", "FILE",
     "publish live progress snapshots to FILE (see `benchtool watch`)"},
    {"--progress", "ECCSIM_PROGRESS", nullptr,
     "live stderr progress line with throughput, ETA and MC rel-CI"},
};
/// Settings with no flag, read from the environment only.
constexpr const char* kEnvOnly[] = {"STATS_TRACE_LIMIT",
                                    "ECCSIM_STATUS_INTERVAL_MS"};

void print_help() {
  std::printf(
      "usage: %s [--stats] [--stats-epoch=N] [--trace=DIR]\n"
      "          [--quick|--smoke] [--dram G] [--list-workloads]\n"
      "          [--trace-in DIR] [--trace-out DIR] [--trace-point pre|post]\n"
      "          [--mc-systems N] [--mc-chunk N]\n"
      "          [--mc-target-rel-ci X] [--mc-checkpoint FILE]\n"
      "          [--status FILE] [--progress]\n"
      "Each flag overrides the environment variable in brackets.\n",
      g_bench_name.c_str());
  for (const Flag& f : kFlags) {
    std::string spelled = f.name;
    if (f.metavar != nullptr) spelled += std::string(" ") + f.metavar;
    std::printf("  %-24s [%s]\n      %s\n", spelled.c_str(), f.var, f.help);
  }
  std::printf(
      "  --list-workloads         print the 16 paper workloads and exit\n"
      "Environment only: STATS_TRACE_LIMIT (trace events per file, default\n"
      "200000), ECCSIM_STATUS_INTERVAL_MS (default 200).  Read by the\n"
      "libraries: RUNNER_THREADS, ECCSIM_CHECK, ECCSIM_KERNEL.\n");
}

/// Every RunConfig field as a manifest label.
std::vector<std::pair<std::string, std::string>> config_fields() {
  const RunConfig& c = g_config;
  auto num = [](double v) {
    std::ostringstream os;
    os << v;
    return os.str();
  };
  return {
      {"fidelity", fidelity_name()},
      {"dram", dram::to_string(c.dram)},
      {"stats", c.stats.enabled ? "1" : "0"},
      {"stats_epoch", std::to_string(c.stats.epoch_cycles)},
      {"stats_trace", c.stats.trace_dir},
      {"stats_trace_limit", std::to_string(c.stats.trace_limit)},
      {"trace_in", c.trace_in},
      {"trace_out", c.trace_out},
      {"trace_point",
       c.trace_point == tracefile::CapturePoint::kPreLlc ? "pre" : "post"},
      {"mc_systems", std::to_string(c.mc_systems)},
      {"mc_chunk", std::to_string(c.mc.chunk_size)},
      {"mc_target_rel_ci", num(c.mc.target_rel_ci)},
      {"mc_checkpoint", c.mc.checkpoint_path},
      {"status", c.heartbeat.status_path},
      {"progress", c.heartbeat.stderr_line ? "1" : "0"},
      {"status_interval_ms", std::to_string(c.heartbeat.min_interval_ms)},
  };
}

/// Resolves the replay file for one sweep cell: a shared per-workload
/// trace first (pre-LLC stimulus is scheme-independent), then a per-cell
/// one.  Runs on the main thread before the fan-out so a missing file is
/// one clear error instead of a worker-thread exception.
std::string resolve_trace_in(const std::string& workload,
                             const std::string& scheme) {
  const std::string& dir = g_config.trace_in;
  const std::string shared = dir + "/" + workload + ".ecctrace";
  const std::string per_cell =
      dir + "/" + workload + "_" + scheme + ".ecctrace";
  for (const auto& p : {shared, per_cell}) {
    if (std::ifstream(p).good()) return p;
  }
  std::fprintf(stderr,
               "%s: no trace for %s/%s under --trace-in (tried %s and %s)\n",
               g_bench_name.c_str(), workload.c_str(), scheme.c_str(),
               shared.c_str(), per_cell.c_str());
  obs::note_exit_code(1);
  std::exit(1);
}

/// The 16 paper workloads with their calibrated parameters, for --help
/// discovery and for naming traces to record.
void print_workloads() {
  std::printf("%-14s %-4s %-5s %-7s %-9s %s\n", "workload", "bin", "mt",
              "apki", "write%", "footprint");
  for (const auto& w : trace::paper_workloads()) {
    std::printf("%-14s %-4d %-5s %-7.1f %-9.0f %llu MB\n", w.name.c_str(),
                w.bin, w.multithreaded ? "yes" : "no", w.apki,
                w.write_fraction * 100.0,
                static_cast<unsigned long long>(w.footprint_bytes >> 20));
  }
}

runner::RunMetadata metadata() {
  return runner::collect_metadata(
      g_config.fidelity == RunConfig::Fidelity::kQuick, smoke_mode());
}

void write_stats_dump(
    const std::string& scale_label, const stats::Config& cfg,
    const std::vector<std::unique_ptr<stats::Collector>>& collectors);
extern std::vector<std::unique_ptr<stats::Collector>> g_adhoc_collectors;

/// Process-wide accumulation of every merged registry this run produced
/// (sweep + ad-hoc collectors), exported as results/<bench>.prom by the
/// atexit report.  Function-local static, touched from init() so it
/// outlives the atexit handler.
stats::Registry& prom_registry() {
  static stats::Registry reg;
  return reg;
}

std::string manifest_path() {
  return out_dir("results") + "/" + g_bench_name + ".manifest.json";
}

/// End-of-run report, registered via std::atexit by init().  The first
/// line always prints (scripts/run_all.sh parses it for its summary); the
/// per-scope profile only exists when --stats enabled the profiler.
void profile_report() {
  // Flush any collectors from direct-SystemSim benches (ablations) first:
  // their stats dump is part of the run's output, not just the profile.
  if (!g_adhoc_collectors.empty()) {
    write_stats_dump("custom", g_config.stats, g_adhoc_collectors);
  }
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - kProcessStart)
                          .count();
  const double rss_mb =
      static_cast<double>(stats::process_peak_rss_bytes()) / (1024.0 * 1024.0);
  std::fprintf(stderr, "[eccsim-profile] bench=%s wall_seconds=%.3f "
               "peak_rss_mb=%.1f\n",
               g_bench_name.c_str(), wall, rss_mb);

  // Finalize the run manifest (status was "running" since init()).
  obs::Manifest& m = obs::manifest();
  m.finished_utc = obs::utc_timestamp();
  m.wall_seconds = wall;
  m.peak_rss_bytes = stats::process_peak_rss_bytes();
  if (m.status == "running") m.status = "completed";
  obs::write_manifest(manifest_path(), m);

  if (g_config.stats.enabled && prom_registry().size() > 0) {
    obs::write_openmetrics(
        out_dir("results") + "/" + g_bench_name + ".prom", prom_registry(),
        {{"bench", g_bench_name},
         {"dram", dram::to_string(g_config.dram)},
         {"fidelity", fidelity_name()}});
  }
  if (!stats::Profiler::enabled()) return;

  const auto snapshot = stats::Profiler::snapshot();
  for (const auto& [scope, totals] : snapshot) {
    std::fprintf(stderr, "[eccsim-profile] scope=%s calls=%llu seconds=%.3f\n",
                 scope.c_str(),
                 static_cast<unsigned long long>(totals.calls),
                 totals.seconds);
  }
  runner::Json doc = runner::Json::object();
  doc.set("bench", g_bench_name);
  doc.set("wall_seconds", wall);
  doc.set("peak_rss_bytes", stats::process_peak_rss_bytes());
  doc.set("scopes", runner::profile_to_json(snapshot));
  runner::write_json(out_dir("results") + "/" + g_bench_name + ".profile.json",
                     doc);
}

/// Collectors handed out by new_collector() for benches that build
/// SystemSims directly; dumped by the atexit report.
std::vector<std::unique_ptr<stats::Collector>> g_adhoc_collectors;

/// Writes results/<bench>.stats.json (merged registry + per-cell epoch
/// series + trace-file index), flushes the per-cell trace files, and
/// prints the human-readable summary table.
void write_stats_dump(
    const std::string& scale_label, const stats::Config& cfg,
    const std::vector<std::unique_ptr<stats::Collector>>& collectors) {
  stats::Registry merged;
  for (const auto& c : collectors) merged.merge(c->registry());
  // Feed the process-wide OpenMetrics registry too: a bench may dump both
  // a sweep and ad-hoc collectors, and the .prom file reflects their sum.
  prom_registry().merge(merged);

  runner::Json doc = runner::Json::object();
  doc.set("bench", g_bench_name);
  doc.set("scale", scale_label);
  doc.set("epoch_cycles", cfg.epoch_cycles);
  doc.set("metadata", runner::to_json(metadata()));
  doc.set("merged", runner::to_json(merged));
  runner::Json cells = runner::Json::array();
  for (const auto& c : collectors) {
    runner::Json jc = runner::Json::object();
    jc.set("workload", c->workload());
    jc.set("scheme", c->scheme());
    if (stats::Tracer* t = c->tracer()) {
      t->write();
      jc.set("trace_file", t->path());
      jc.set("trace_events", t->recorded());
      jc.set("trace_dropped", t->dropped());
    }
    jc.set("stats", runner::to_json(c->registry()));
    cells.push_back(std::move(jc));
  }
  doc.set("cells", cells);
  const std::string path =
      out_dir("results") + "/" + g_bench_name + ".stats.json";
  runner::write_json(path, doc);

  // Human-readable summary of the merged push stats (per-bank counters are
  // elided: 32+ rows of detail that belong in the JSON, not on a terminal).
  std::printf("\n-- stats summary: %zu cells merged -> %s --\n",
              collectors.size(), path.c_str());
  std::printf("%-44s %s\n", "stat", "value");
  for (const auto& e : merged.view()) {
    if (e.path->find(".bank") != std::string::npos) continue;
    switch (e.kind) {
      case stats::Registry::Kind::kCounter:
      case stats::Registry::Kind::kAccum:
        std::printf("%-44s %.0f\n", e.path->c_str(), e.value);
        break;
      case stats::Registry::Kind::kDistribution:
        std::printf("%-44s mean=%.2f min=%.0f max=%.0f n=%llu\n",
                    e.path->c_str(), e.dist->mean(), e.dist->min(),
                    e.dist->max(),
                    static_cast<unsigned long long>(e.dist->count()));
        break;
      case stats::Registry::Kind::kHistogram:
        std::printf("%-44s p50=%.0f p95=%.0f p99=%.0f n=%llu\n",
                    e.path->c_str(), e.hist->percentile(50),
                    e.hist->percentile(95), e.hist->percentile(99),
                    static_cast<unsigned long long>(e.hist->total()));
        break;
      case stats::Registry::Kind::kGauge:
        break;  // per-run artifacts; merged registries carry none
    }
  }
  std::printf("\n");
}

std::string serialize(const sim::RunResult& r) {
  std::ostringstream os;
  os.precision(17);
  os << r.scheme << ',' << r.workload << ',' << r.instructions << ','
     << r.mem_cycles << ',' << r.ipc << ',' << r.epi_pj << ','
     << r.dynamic_epi_pj << ',' << r.background_epi_pj << ',' << r.mapi
     << ',' << r.bandwidth_utilization << ',' << r.avg_read_latency << ','
     << r.mem.reads << ',' << r.mem.writes << ',' << r.mem.ecc_reads << ','
     << r.mem.ecc_writes;
  return os.str();
}

std::vector<sim::RunResult> run_sweep(ecc::SystemScale scale) {
  // One cell per (workload, scheme), fanned out over the runner.  Each
  // cell builds its own SimOptions with the workload's substream seed, so
  // schemes stay paired per workload and nothing depends on execution
  // order.  With --stats every cell additionally owns one Collector
  // (single-threaded registries; merged on this thread after the fan-out,
  // so the bit-identical-at-any-thread-count guarantee is untouched).
  const stats::Config& stats_cfg = g_config.stats;
  std::vector<std::unique_ptr<stats::Collector>> collectors;
  std::vector<ecc::SchemeDesc> schemes;
  for (const auto id : ecc::all_schemes()) {
    schemes.push_back(ecc::make_scheme(id, scale));
  }
  const auto& workloads = trace::paper_workloads();

  // The options every cell shares.  A replayed or recorded sweep gives
  // each cell its own trace file below; sim::shares_warm_up(base) decides
  // whether cells may start from a shared warm-up.
  sim::SimOptions base = sim_options();
  base.trace_in = g_config.trace_in;
  base.trace_out = g_config.trace_out;
  base.trace_point = g_config.trace_point;

  // First phase: one LLC warm-up per (workload, warm-up class), which
  // every cell of the class then starts from (sim::WarmState; the classes
  // are exact, so results are unchanged).  warm[wi * schemes + si] is the
  // state of scheme si on workload wi; each cell drops its entry once its
  // SystemSim holds a copy, so a class's state is freed with its last cell.
  std::vector<std::shared_ptr<const sim::WarmState>> warm(workloads.size() *
                                                          schemes.size());
  if (sim::shares_warm_up(base)) {
    const auto classes = sim::warm_classes(schemes, g_config.dram);
    std::vector<runner::Cell> warm_cells;
    for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
      sim::SimOptions opts = base;
      opts.seed = trace::paper_sweep_seed(wi);
      for (const auto& members : classes) {
        runner::Cell cell;
        for (const std::size_t si : members) {
          cell.scheme += (cell.scheme.empty() ? "" : ",") + schemes[si].name;
        }
        cell.workload = workloads[wi].name;
        cell.work = [&warm, &schemes, &workloads, wi, members, opts] {
          const auto state =
              std::make_shared<const sim::WarmState>(sim::SystemSim::warm(
                  schemes[members.front()], workloads[wi], sim::CpuConfig{},
                  opts));
          for (const std::size_t si : members) {
            warm[wi * schemes.size() + si] = state;
          }
          return sim::RunResult{};
        };
        warm_cells.push_back(std::move(cell));
      }
    }
    run_cells("warm-up " + scale_name(scale), warm_cells);
  }

  std::vector<runner::Cell> cells;
  cells.reserve(workloads.size() * schemes.size());
  for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
    const std::uint64_t seed = trace::paper_sweep_seed(wi);
    for (std::size_t si = 0; si < schemes.size(); ++si) {
      runner::Cell cell;
      cell.scheme = schemes[si].name;
      cell.workload = workloads[wi].name;
      // Trace paths resolve on this thread (clear errors); recordings get
      // per-cell names so concurrent cells never share a file.
      sim::SimOptions opts = base;
      opts.seed = seed;
      if (!base.trace_in.empty()) {
        opts.trace_in = resolve_trace_in(cell.workload, cell.scheme);
      }
      if (!base.trace_out.empty()) {
        opts.trace_out = base.trace_out + "/" + cell.workload + "_" +
                         cell.scheme + ".ecctrace";
      }
      if (stats_cfg.enabled) {
        collectors.push_back(std::make_unique<stats::Collector>(stats_cfg));
        opts.stats = collectors.back().get();
        opts.stats->set_label(cell.workload, cell.scheme);
        if (!stats_cfg.trace_dir.empty()) {
          opts.stats->open_trace(stats_cfg.trace_dir + "/" + cell.workload +
                                 "_" + cell.scheme + ".trace.json");
        }
      }
      cell.work = [scheme = schemes[si], &workload = workloads[wi], opts,
                   &state = warm[wi * schemes.size() + si]] {
        const auto run = [&] {
          sim::SystemSim system(scheme, workload, sim::CpuConfig{}, opts,
                                state.get());
          state.reset();
          return system.run();
        };
        if (opts.trace_in.empty() && opts.trace_out.empty()) return run();
        // Trace I/O can fail mid-run (exhausted/corrupt trace, full disk);
        // the runner's workers do not catch exceptions, so fail the whole
        // bench here with a readable message instead of std::terminate.
        try {
          return run();
        } catch (const std::exception& e) {
          std::fprintf(stderr, "\n%s: trace failure in cell %s/%s: %s\n",
                       g_bench_name.c_str(), workload.name.c_str(),
                       scheme.name.c_str(), e.what());
          obs::note_exit_code(1);
          std::exit(1);
        }
      };
      cells.push_back(std::move(cell));
    }
  }

  const runner::Report report =
      run_cells("sweep " + scale_name(scale), cells);
  if (stats_cfg.enabled) {
    write_stats_dump(scale_name(scale), stats_cfg, collectors);
  }

  // Persist the per-cell metrics + fan-out timings (this is where the
  // realized speedup is recorded).
  runner::Json doc = runner::Json::object();
  doc.set("bench", "sweep_" + scale_name(scale));
  doc.set("scale", scale_name(scale));
  doc.set("target_instructions", target_instructions());
  doc.set("metadata", runner::to_json(metadata()));
  doc.set("run", runner::to_json(report));
  runner::write_json(
      out_dir("results") + "/sweep_" + scale_name(scale) + ".json", doc);

  std::vector<sim::RunResult> rows;
  rows.reserve(report.cells.size());
  for (const auto& c : report.cells) rows.push_back(c.result);
  return rows;
}

}  // namespace

void init(int argc, char** argv) {
  if (argc > 0 && argv[0] != nullptr) {
    const std::string path = argv[0];
    const auto slash = path.find_last_of('/');
    g_bench_name =
        slash == std::string::npos ? path : path.substr(slash + 1);
  }
  // Environment first (in kFlags order, so ECCSIM_SMOKE beats
  // ECCSIM_QUICK; an empty variable counts as unset), then the flags in
  // command-line order.
  RunConfig& cfg = g_config;
  cfg.stats.epoch_cycles = 0;  // unset until the fidelity is known
  auto apply_env = [&cfg](const char* var) {
    const char* v = std::getenv(var);
    if (v != nullptr && *v != '\0') apply(cfg, var, v, var);
  };
  for (const Flag& f : kFlags) apply_env(f.var);
  for (const char* var : kEnvOnly) apply_env(var);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-workloads") {
      print_workloads();
      std::exit(0);
    }
    if (arg == "--help" || arg == "-h") {
      print_help();
      std::exit(0);
    }
    const Flag* flag = nullptr;
    std::string value;
    for (const Flag& f : kFlags) {
      const std::string name = f.name;
      if (f.metavar == nullptr ? arg == name
                               : arg.rfind(name + "=", 0) == 0) {
        value = f.metavar == nullptr ? "1" : arg.substr(name.size() + 1);
      } else if (f.metavar != nullptr && arg == name) {
        if (i + 1 >= argc) usage_error(name + " requires a value");
        value = argv[++i];
      } else {
        continue;
      }
      flag = &f;
      break;
    }
    if (flag == nullptr) {
      usage_error("unknown flag '" + arg + "' (try --help)");
    }
    apply(cfg, flag->var, value, flag->name);
  }
  if (cfg.stats.epoch_cycles == 0) {
    // Small enough that even a CI-sized smoke run (~tens of thousands of
    // memory cycles) records several epochs.
    cfg.stats.epoch_cycles = smoke_mode() ? 500 : 10'000;
  }
  obs::Heartbeat::global().configure(cfg.heartbeat);
  if (cfg.stats.enabled) stats::Profiler::set_enabled(true);

  // Boot the run manifest: written with status "running" now, finalized
  // by the atexit report.  A reader that finds a stale "running" manifest
  // knows the process died without reaching its exit hook.
  obs::Heartbeat::global().set_tool(g_bench_name);
  obs::Manifest& m = obs::manifest();
  m.tool = g_bench_name;
  for (int i = 1; i < argc; ++i) m.args.emplace_back(argv[i]);
  m.git_sha = obs::git_head_sha();
  m.dram = dram::to_string(cfg.dram);
  // All sweeps draw per-workload substreams of root seed 1 (see
  // trace::paper_sweep_seed); that is the only seed regime the benches use.
  m.seed_regime = "paper_sweep_seed(root=1)";
  m.threads = runner::ThreadPool::default_thread_count();
  m.host = obs::hostname();
  m.host_cpus = obs::cpu_count();
  m.started_utc = obs::utc_timestamp();
  m.extra = config_fields();
  // Resolving the GF kernel here makes a bad ECCSIM_KERNEL fail fast at
  // startup (exit 2, like any malformed flag) instead of mid-sweep, and
  // stamps the manifest so every result names the kernel that computed it.
  const gf::Kernel kern = gf::active_kernel();
  m.extra.emplace_back("kernel", gf::kernel_name(kern));
  obs::write_manifest(manifest_path(), m);

  // Companion kernel-provenance document (schema eccsim.kernels/1, see
  // docs/OBSERVABILITY.md): which kernel ran, whether it was forced, and
  // what the CPU offered.  Observation-only; results are kernel-invariant
  // by the oracle guarantee (docs/KERNELS.md).
  {
    runner::Json kdoc = runner::Json::object();
    kdoc.set("schema", "eccsim.kernels/1");
    kdoc.set("bench", g_bench_name);
    kdoc.set("active", gf::kernel_name(kern));
    const char* forced = std::getenv("ECCSIM_KERNEL");
    kdoc.set("override", forced != nullptr ? runner::Json(forced)
                                           : runner::Json(nullptr));
    runner::Json avail = runner::Json::array();
    for (gf::Kernel k : {gf::Kernel::kScalar, gf::Kernel::kSlice8,
                         gf::Kernel::kSimd}) {
      if (gf::kernel_available(k)) avail.push_back(gf::kernel_name(k));
    }
    kdoc.set("available", std::move(avail));
    kdoc.set("simd_avx2", gf::kernel_simd_uses_avx2());
    runner::write_json(
        out_dir("results") + "/" + g_bench_name + ".kernels.json", kdoc);
  }

  // Touch the profiler's (and exporter's) function-local statics now so
  // they are constructed before the atexit handler registers -- C++ tears
  // static storage down in reverse order, so this guarantees they outlive
  // it.
  (void)stats::Profiler::snapshot();
  (void)prom_registry();
  std::atexit(&profile_report);
}

const RunConfig& run_config() { return g_config; }

const std::string& bench_name() { return g_bench_name; }

dram::Generation dram_generation() { return g_config.dram; }

stats::Collector* new_collector(const std::string& workload,
                                const std::string& scheme) {
  const stats::Config& cfg = g_config.stats;
  if (!cfg.enabled) return nullptr;
  g_adhoc_collectors.push_back(std::make_unique<stats::Collector>(cfg));
  stats::Collector* col = g_adhoc_collectors.back().get();
  col->set_label(workload, scheme);
  if (!cfg.trace_dir.empty()) {
    col->open_trace(cfg.trace_dir + "/" + workload + "_" + scheme +
                    ".trace.json");
  }
  return col;
}

std::uint64_t target_instructions() {
  switch (g_config.fidelity) {
    case RunConfig::Fidelity::kSmoke: return 50'000;
    case RunConfig::Fidelity::kQuick: return 200'000;
    case RunConfig::Fidelity::kFull: break;
  }
  return 1'000'000;
}

sim::SimOptions sim_options() {
  sim::SimOptions opts;
  opts.target_instructions = target_instructions();
  opts.dram_gen = g_config.dram;
  return opts;
}

faults::McOptions mc_options() {
  faults::McOptions opts = g_config.mc;
  if (g_config.stats.enabled) {
    // One collector labeled ("mc", <bench>) carries every MC run's mc.*
    // counters and rel-CI series into results/<bench>.stats.json.
    static stats::Collector* col = new_collector("mc", g_bench_name);
    opts.stats = &col->registry();
  }
  return opts;
}

unsigned mc_systems(unsigned full) {
  if (g_config.mc_systems > 0) return g_config.mc_systems;
  unsigned n = full;
  if (g_config.fidelity == RunConfig::Fidelity::kSmoke) {
    n = full / 20;
  } else if (g_config.fidelity == RunConfig::Fidelity::kQuick) {
    n = full / 5;
  }
  return std::max(n, 200u);
}

runner::Report run_cells(const std::string& label,
                         const std::vector<runner::Cell>& cells) {
  runner::RunOptions opts;
  obs::Heartbeat& hb = obs::Heartbeat::global();
  const bool tty = isatty(fileno(stderr)) != 0;
  opts.progress = [&label, &hb, tty](std::size_t done, std::size_t total,
                                     const runner::Cell& cell) {
    if (hb.enabled()) {
      obs::Heartbeat::Tick t;
      t.phase = label;
      t.done = done;
      t.total = total;
      t.counters = {{"cells_done", static_cast<double>(done)}};
      hb.tick(t);
    }
    // The heartbeat's --progress line supersedes the plain one; printing
    // both would interleave two \r lines on the same row.  A \r line only
    // makes sense on a terminal: in a log it is one line per cell.
    if (hb.config().stderr_line || !tty) return;
    std::fprintf(stderr, "\r[%s] %zu/%zu (%s / %s)        ", label.c_str(),
                 done, total, cell.workload.c_str(), cell.scheme.c_str());
    std::fflush(stderr);
  };
  runner::Report report = runner::run_cells(cells, opts);
  std::fprintf(stderr,
               "%s[%s] %zu cells, %.1fs wall (%.1fs serial-equivalent, "
               "%.2fx on %u threads)\n",
               tty ? "\r" : "", label.c_str(), cells.size(),
               report.wall_seconds, report.cell_seconds, report.speedup(),
               report.threads);
  return report;
}

const std::vector<sim::RunResult>& sweep(ecc::SystemScale scale) {
  static std::map<int, std::vector<sim::RunResult>> memo;
  const int key = static_cast<int>(scale);
  auto it = memo.find(key);
  if (it != memo.end()) return it->second;

  auto rows = run_sweep(scale);
  std::ostringstream os;
  for (const auto& r : rows) os << serialize(r) << '\n';
  write_file(out_dir("bench_results") + "/sweep_" + scale_name(scale) + ".csv",
             os.str());
  return memo.emplace(key, std::move(rows)).first->second;
}

const sim::RunResult& find(const std::vector<sim::RunResult>& rows,
                           const std::string& scheme,
                           const std::string& workload) {
  for (const auto& r : rows) {
    if (r.scheme == scheme && r.workload == workload) return r;
  }
  throw std::out_of_range("no result for " + scheme + "/" + workload);
}

int bin_of(const std::string& workload) {
  return trace::workload_by_name(workload).bin;
}

double reduction_pct(double baseline, double ours) {
  return (1.0 - ours / baseline) * 100.0;
}

void emit(const std::string& name, const Table& table) {
  std::printf("%s\n", table.str().c_str());
  write_file(out_dir("bench_results") + "/" + name + ".csv", table.csv());

  runner::Json doc = runner::Json::object();
  doc.set("bench", name);
  doc.set("metadata", runner::to_json(metadata()));
  doc.set("wall_seconds",
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        kProcessStart)
              .count());
  runner::Json tbl = runner::Json::object();
  runner::Json header = runner::Json::array();
  for (const auto& h : table.header()) header.push_back(h);
  tbl.set("header", header);
  runner::Json rows = runner::Json::array();
  for (const auto& r : table.row_data()) {
    runner::Json row = runner::Json::array();
    for (const auto& cell : r) row.push_back(cell);
    rows.push_back(row);
  }
  tbl.set("rows", rows);
  doc.set("table", tbl);
  runner::write_json(out_dir("results") + "/" + name + ".json", doc);
}

std::vector<std::string> workload_order() {
  std::vector<std::string> names;
  for (int bin : {1, 2}) {
    for (const auto& w : trace::paper_workloads()) {
      if (w.bin == bin) names.push_back(w.name);
    }
  }
  return names;
}

}  // namespace eccsim::bench
