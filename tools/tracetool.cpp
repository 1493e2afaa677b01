// tracetool: record, inspect, and validate .ecctrace stimulus files.
//
//   tracetool record --workload mcf --out traces/   record one workload
//   tracetool record --all --out traces/            record all 16
//   tracetool info FILE                             header + size summary
//   tracetool validate FILE...                      deep-scan every chunk;
//                                                   exit 1 on any failure
//   tracetool stats FILE                            stream statistics
//   tracetool head FILE [-n N]                      first N records
//   tracetool list-workloads                        the recordable names
//   tracetool specs [--dram G]                      DRAM generation tables
//
// Records are generator-direct (no simulation), so recording all 16
// workloads at the default 60000 ops/core takes well under a second.  The
// default seed is the workload's canonical paper-sweep seed, which is what
// makes the file replay bit-identically under `sweep_figures --trace-in`
// (at either scale: pre-LLC stimulus does not depend on it); the
// default depth covers SystemSim's LLC warmup (49152 ops/core) plus the
// measured phase at full fidelity with headroom.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "dram/spec.hpp"
#include "obs/heartbeat.hpp"
#include "obs/manifest.hpp"
#include "runner/json.hpp"
#include "trace/workload.hpp"
#include "tracefile/reader.hpp"
#include "tracefile/replay.hpp"

namespace {

using namespace eccsim;

int usage(FILE* out, int code) {
  std::fprintf(out,
               "usage: tracetool <command> [options]\n"
               "  record --workload NAME | --all [options]\n"
               "      --out PATH       output file (or directory with --all\n"
               "                       or a trailing '/'); default traces/\n"
               "      --ops-per-core N ops recorded per core (default 60000,\n"
               "                       enough for warmup + a full-fidelity\n"
               "                       measured phase)\n"
               "      --cores N        cores in the recording (default 8)\n"
               "      --seed S         stimulus seed (default: the\n"
               "                       workload's canonical sweep seed)\n"
               "  info FILE            print header metadata and sizes\n"
               "  validate FILE...     verify framing and every CRC; exit 1\n"
               "                       on the first bad file\n"
               "  stats FILE [--json]  read/write mix, footprint, gaps;\n"
               "                       --json emits stable dotted stat paths\n"
               "                       (trace.ops, trace.write_fraction, ...)\n"
               "  head FILE [-n N]     print the first N records (default "
               "10)\n"
               "  list-workloads       names recordable with --workload\n"
               "  specs [--dram G]     print the device parameter tables of\n"
               "                       every DRAM generation (or just G:\n"
               "                       ddr3, ddr4, or ddr5)\n");
  return code;
}

/// `--flag value` / `--flag=value`, advancing i; nullptr if arg != flag.
const char* flag_value(int argc, char** argv, int& i, const char* name) {
  const std::string arg = argv[i];
  const std::string prefix = std::string(name) + "=";
  if (arg.rfind(prefix, 0) == 0) return argv[i] + prefix.size();
  if (arg != name) return nullptr;
  if (i + 1 >= argc) {
    std::fprintf(stderr, "tracetool: %s requires a value\n", name);
    std::exit(2);
  }
  return argv[++i];
}

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

int cmd_record(int argc, char** argv) {
  std::string workload;
  bool all = false;
  std::string out = "traces/";
  std::uint64_t ops_per_core = 60'000;
  unsigned cores = 8;
  std::optional<std::uint64_t> seed;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = nullptr;
    if ((v = flag_value(argc, argv, i, "--workload")) != nullptr) {
      workload = v;
    } else if (arg == "--all") {
      all = true;
    } else if ((v = flag_value(argc, argv, i, "--out")) != nullptr) {
      out = v;
    } else if ((v = flag_value(argc, argv, i, "--ops-per-core")) != nullptr) {
      ops_per_core = std::strtoull(v, nullptr, 10);
    } else if ((v = flag_value(argc, argv, i, "--cores")) != nullptr) {
      cores = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
    } else if ((v = flag_value(argc, argv, i, "--seed")) != nullptr) {
      seed = std::strtoull(v, nullptr, 10);
    } else {
      std::fprintf(stderr, "tracetool record: unknown flag '%s'\n",
                   arg.c_str());
      return 2;
    }
  }
  if (all == !workload.empty() || cores == 0 || ops_per_core == 0) {
    std::fprintf(stderr, "tracetool record: need exactly one of --workload "
                 "NAME or --all, and nonzero --cores/--ops-per-core\n");
    return 2;
  }

  std::vector<const trace::WorkloadDesc*> targets;
  if (all) {
    for (const auto& w : trace::paper_workloads()) targets.push_back(&w);
  } else {
    targets.push_back(&trace::workload_by_name(workload));
  }

  // Recording produces committed-quality artifacts, so it gets the full
  // observability treatment: a run manifest plus heartbeat ticks.
  obs::Heartbeat& hb = obs::Heartbeat::global();
  hb.set_tool("tracetool");
  obs::ToolManifest man("tracetool", argc, argv,
                        "results/tracetool.manifest.json",
                        seed ? "explicit" : "paper_sweep_seed(root=1)", 1);

  const bool out_is_dir = all || out.empty() || out.back() == '/';
  std::uint64_t done = 0;
  for (const trace::WorkloadDesc* w : targets) {
    std::string path = out;
    if (out_is_dir) {
      if (!path.empty() && path.back() != '/') path += '/';
      path += w->name + ".ecctrace";
    }
    const std::uint64_t s =
        seed ? *seed : trace::paper_sweep_seed(w->name);
    const std::uint64_t ops = tracefile::record_workload_trace(
        *w, cores, ops_per_core, s, path);
    const auto res = tracefile::validate_file(path);
    if (!res.ok) {
      std::fprintf(stderr, "tracetool record: %s failed post-write "
                   "validation: %s\n", path.c_str(), res.error.c_str());
      return man.finish(1);
    }
    ++done;
    if (hb.enabled()) {
      obs::Heartbeat::Tick t;
      t.phase = "record";
      t.done = done;
      t.total = targets.size();
      t.counters = {{"ops_recorded", static_cast<double>(ops)}};
      hb.tick(t);
    }
    std::printf("recorded %-14s -> %s (%" PRIu64 " ops, %" PRIu64
                " bytes, seed %" PRIu64 ")\n",
                w->name.c_str(), path.c_str(), ops, res.file_bytes, s);
  }
  return man.finish(0);
}

int cmd_info(const std::string& path) {
  tracefile::TraceReader reader(path);
  const tracefile::TraceMeta& m = reader.meta();
  std::printf("file:        %s\n", path.c_str());
  std::printf("version:     %u\n", tracefile::kFormatVersion);
  std::printf("point:       %s\n", tracefile::to_string(m.point).c_str());
  std::printf("workload:    %s\n", m.workload.c_str());
  std::printf("cores:       %u\n", m.cores);
  std::printf("seed:        %" PRIu64 "\n", m.seed);
  std::printf("ops:         %" PRIu64 "\n", reader.total_ops());
  std::printf("chunks:      %zu\n", reader.chunk_count());
  std::printf("file bytes:  %" PRIu64 "\n", reader.file_bytes());
  if (reader.total_ops() > 0) {
    std::printf("bytes/op:    %.2f\n",
                static_cast<double>(reader.file_bytes()) /
                    static_cast<double>(reader.total_ops()));
  }
  return 0;
}

int cmd_validate(int argc, char** argv) {
  if (argc < 3) return usage(stderr, 2);
  obs::Heartbeat& hb = obs::Heartbeat::global();
  hb.set_tool("tracetool");
  int rc = 0;
  for (int i = 2; i < argc; ++i) {
    const auto res = tracefile::validate_file(argv[i]);
    if (hb.enabled()) {
      obs::Heartbeat::Tick t;
      t.phase = "validate";
      t.done = static_cast<std::uint64_t>(i - 1);
      t.total = static_cast<std::uint64_t>(argc - 2);
      hb.tick(t);
    }
    if (res.ok) {
      std::printf("%s: OK (%s, %" PRIu64 " ops, %" PRIu64 " chunks, %"
                  PRIu64 " bytes)\n",
                  argv[i], tracefile::to_string(res.meta.point).c_str(),
                  res.ops, res.chunks, res.file_bytes);
    } else {
      std::fprintf(stderr, "%s: FAILED: %s\n", argv[i], res.error.c_str());
      rc = 1;
    }
  }
  return rc;
}

int cmd_stats(int argc, char** argv) {
  std::string path;
  bool json = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (path.empty() && arg.rfind("--", 0) != 0) {
      path = arg;
    } else {
      std::fprintf(stderr, "tracetool stats: unknown flag '%s'\n",
                   arg.c_str());
      return 2;
    }
  }
  if (path.empty()) return usage(stderr, 2);

  tracefile::TraceReader reader(path);
  const tracefile::TraceMeta& m = reader.meta();
  // Stable dotted stat paths (the --json contract; scripts key on these):
  // pre-LLC traces emit trace.ops/.writes/.write_fraction/.unique_lines/
  // .mean_gap plus trace.core<N>.ops; post-LLC traces emit trace.requests,
  // trace.class.*, and the cycle span.
  std::vector<std::pair<std::string, double>> stats;
  if (m.point == tracefile::CapturePoint::kPreLlc) {
    std::uint64_t ops = 0, writes = 0, gap_sum = 0;
    std::unordered_set<std::uint64_t> lines;
    std::vector<std::uint64_t> per_core(m.cores, 0);
    tracefile::PreOp rec;
    while (reader.next(rec)) {
      ++ops;
      if (rec.op.is_write) ++writes;
      gap_sum += rec.op.gap;
      lines.insert(rec.op.line);
      ++per_core[rec.core];
    }
    const double write_frac =
        ops ? static_cast<double>(writes) / static_cast<double>(ops) : 0.0;
    const double mean_gap =
        ops ? static_cast<double>(gap_sum) / static_cast<double>(ops) : 0.0;
    stats.emplace_back("trace.ops", static_cast<double>(ops));
    stats.emplace_back("trace.writes", static_cast<double>(writes));
    stats.emplace_back("trace.write_fraction", write_frac);
    stats.emplace_back("trace.unique_lines",
                       static_cast<double>(lines.size()));
    stats.emplace_back("trace.mean_gap", mean_gap);
    for (unsigned c = 0; c < m.cores; ++c) {
      stats.emplace_back("trace.core" + std::to_string(c) + ".ops",
                         static_cast<double>(per_core[c]));
    }
    if (!json) {
      std::printf("%s: %s, workload %s, %u cores\n", path.c_str(),
                  tracefile::to_string(m.point).c_str(), m.workload.c_str(),
                  m.cores);
      std::printf("ops:            %" PRIu64 "\n", ops);
      std::printf("writes:         %" PRIu64 " (%.1f%%)\n", writes,
                  100.0 * write_frac);
      std::printf("unique lines:   %zu (%.1f MB touched)\n", lines.size(),
                  static_cast<double>(lines.size()) * 64.0 / (1024 * 1024));
      std::printf("mean gap:       %.2f instructions\n", mean_gap);
      for (unsigned c = 0; c < m.cores; ++c) {
        std::printf("core %-2u ops:    %" PRIu64 "\n", c, per_core[c]);
      }
    }
  } else {
    std::uint64_t ops = 0, writes = 0;
    std::uint64_t by_class[4] = {0, 0, 0, 0};
    std::uint64_t first_cycle = 0, last_cycle = 0;
    tracefile::PostOp rec;
    while (reader.next(rec)) {
      if (ops == 0) first_cycle = rec.cycle;
      last_cycle = rec.cycle;
      ++ops;
      if (rec.is_write) ++writes;
      ++by_class[static_cast<unsigned>(rec.line_class) & 3u];
    }
    const double write_frac =
        ops ? static_cast<double>(writes) / static_cast<double>(ops) : 0.0;
    stats.emplace_back("trace.requests", static_cast<double>(ops));
    stats.emplace_back("trace.writes", static_cast<double>(writes));
    stats.emplace_back("trace.write_fraction", write_frac);
    stats.emplace_back("trace.class.data", static_cast<double>(by_class[0]));
    stats.emplace_back("trace.class.ecc_parity",
                       static_cast<double>(by_class[1]));
    stats.emplace_back("trace.class.ecc_correction",
                       static_cast<double>(by_class[2]));
    stats.emplace_back("trace.class.other",
                       static_cast<double>(by_class[3]));
    stats.emplace_back("trace.cycle_first",
                       static_cast<double>(first_cycle));
    stats.emplace_back("trace.cycle_last", static_cast<double>(last_cycle));
    if (!json) {
      std::printf("%s: %s, workload %s, %u cores\n", path.c_str(),
                  tracefile::to_string(m.point).c_str(), m.workload.c_str(),
                  m.cores);
      std::printf("requests:       %" PRIu64 "\n", ops);
      std::printf("writes:         %" PRIu64 " (%.1f%%)\n", writes,
                  100.0 * write_frac);
      std::printf("data:           %" PRIu64 "\n", by_class[0]);
      std::printf("ecc parity:     %" PRIu64 "\n", by_class[1]);
      std::printf("ecc correction: %" PRIu64 "\n", by_class[2]);
      std::printf("ecc other:      %" PRIu64 "\n", by_class[3]);
      std::printf("cycle span:     %" PRIu64 "..%" PRIu64 "\n", first_cycle,
                  last_cycle);
    }
  }
  if (json) {
    runner::Json doc = runner::Json::object();
    doc.set("schema", "eccsim.tracestats/1");
    doc.set("file", path);
    runner::Json meta = runner::Json::object();
    meta.set("point", tracefile::to_string(m.point));
    meta.set("workload", m.workload);
    meta.set("cores", static_cast<std::uint64_t>(m.cores));
    // As a string: 64-bit seeds do not survive the JSON double round-trip.
    meta.set("seed", std::to_string(m.seed));
    doc.set("meta", meta);
    runner::Json flat = runner::Json::object();
    for (const auto& [key, value] : stats) flat.set(key, value);
    doc.set("stats", flat);
    std::printf("%s\n", doc.dump(2).c_str());
  }
  return 0;
}

int cmd_head(int argc, char** argv) {
  if (argc < 3) return usage(stderr, 2);
  const std::string path = argv[2];
  std::uint64_t n = 10;
  for (int i = 3; i < argc; ++i) {
    const char* v = flag_value(argc, argv, i, "-n");
    if (v != nullptr) {
      n = std::strtoull(v, nullptr, 10);
    } else {
      std::fprintf(stderr, "tracetool head: unknown flag '%s'\n", argv[i]);
      return 2;
    }
  }
  tracefile::TraceReader reader(path);
  if (reader.meta().point == tracefile::CapturePoint::kPreLlc) {
    std::printf("%-6s %-6s %-6s %-8s %s\n", "#", "core", "rw", "gap",
                "line");
    tracefile::PreOp rec;
    for (std::uint64_t i = 0; i < n && reader.next(rec); ++i) {
      std::printf("%-6" PRIu64 " %-6u %-6s %-8u %" PRIu64 "\n", i, rec.core,
                  rec.op.is_write ? "W" : "R", rec.op.gap, rec.op.line);
    }
  } else {
    std::printf("%-6s %-10s %-6s %-6s ch/rk/bk %-10s %s\n", "#", "cycle",
                "rw", "class", "row", "col");
    tracefile::PostOp rec;
    for (std::uint64_t i = 0; i < n && reader.next(rec); ++i) {
      std::printf("%-6" PRIu64 " %-10" PRIu64 " %-6s %-6u %u/%u/%u  %-10"
                  PRIu64 " %u\n",
                  i, rec.cycle, rec.is_write ? "W" : "R",
                  static_cast<unsigned>(rec.line_class), rec.addr.channel,
                  rec.addr.rank, rec.addr.bank, rec.addr.row, rec.addr.col);
    }
  }
  return 0;
}

/// One generation's parameter table: geometry summary, then every timing
/// and current value with the x4/x8/x16 variants side by side.  The same
/// numbers the simulator uses (spec_for), so the printout is always in
/// sync with the model; docs/DRAM_SPECS.md carries the provenance.
void print_spec_table(dram::Generation gen) {
  const dram::DeviceWidth widths[] = {dram::DeviceWidth::kX4,
                                      dram::DeviceWidth::kX8,
                                      dram::DeviceWidth::kX16};
  dram::DramSpec specs[3];
  for (int i = 0; i < 3; ++i) specs[i] = dram::spec_for(gen, widths[i]);
  const dram::DramSpec& s = specs[0];

  std::printf("== %s: %" PRIu64 "Mb, %u banks", to_string(gen).c_str(),
              s.capacity_mbit, s.banks);
  if (s.bank_groups > 1) std::printf(" in %u groups", s.bank_groups);
  if (s.sub_channels > 1) std::printf(", %u sub-channels", s.sub_channels);
  std::printf(", %s refresh",
              s.refresh == dram::RefreshPolicy::kSameBank ? "same-bank"
                                                          : "all-bank");
  if (s.on_die_ecc.enabled) {
    std::printf(", on-die SECDED (%u,%u) coverage %.0f%%",
                s.on_die_ecc.data_bits + s.on_die_ecc.check_bits,
                s.on_die_ecc.data_bits, s.on_die_ecc.bit_fault_coverage * 100);
  }
  std::printf(" ==\n");

  std::printf("%-22s %10s %10s %10s\n", "parameter", "x4", "x8", "x16");
  auto row_u64 = [&](const char* name, auto get) {
    std::printf("%-22s %10llu %10llu %10llu\n", name,
                static_cast<unsigned long long>(get(specs[0])),
                static_cast<unsigned long long>(get(specs[1])),
                static_cast<unsigned long long>(get(specs[2])));
  };
  auto row_f = [&](const char* name, auto get) {
    std::printf("%-22s %10.1f %10.1f %10.1f\n", name, get(specs[0]),
                get(specs[1]), get(specs[2]));
  };
  using S = const dram::DramSpec&;
  row_u64("rows", [](S d) { return d.rows; });
  row_u64("columns", [](S d) { return d.columns; });
  row_u64("page bytes", [](S d) { return d.page_bytes; });
  std::printf("timing (cycles @ 1 GHz)\n");
  row_u64("  tRCD", [](S d) { return d.timing.tRCD; });
  row_u64("  tCL", [](S d) { return d.timing.tCL; });
  row_u64("  tCWL", [](S d) { return d.timing.tCWL; });
  row_u64("  tRP", [](S d) { return d.timing.tRP; });
  row_u64("  tRAS", [](S d) { return d.timing.tRAS; });
  row_u64("  tRC", [](S d) { return d.timing.tRC; });
  row_u64("  tRRD_S", [](S d) { return d.timing.tRRD_S; });
  row_u64("  tRRD_L", [](S d) { return d.timing.tRRD_L; });
  row_u64("  tFAW", [](S d) { return d.timing.tFAW; });
  row_u64("  tCCD_S", [](S d) { return d.timing.tCCD_S; });
  row_u64("  tCCD_L", [](S d) { return d.timing.tCCD_L; });
  row_u64("  tBurst", [](S d) { return d.timing.tBurst; });
  row_u64("  tWR", [](S d) { return d.timing.tWR; });
  row_u64("  tWTR", [](S d) { return d.timing.tWTR; });
  row_u64("  tRTP", [](S d) { return d.timing.tRTP; });
  row_u64("  tRTW", [](S d) { return d.timing.tRTW; });
  row_u64("  tRFC", [](S d) { return d.timing.tRFC; });
  row_u64("  tREFI", [](S d) { return d.timing.tREFI; });
  row_u64("  tXP", [](S d) { return d.timing.tXP; });
  row_u64("  tCKE", [](S d) { return d.timing.tCKE; });
  std::printf("currents (mA) / VDD (V)\n");
  row_f("  IDD0", [](S d) { return d.currents.idd0; });
  row_f("  IDD2P", [](S d) { return d.currents.idd2p; });
  row_f("  IDD2N", [](S d) { return d.currents.idd2n; });
  row_f("  IDD3P", [](S d) { return d.currents.idd3p; });
  row_f("  IDD3N", [](S d) { return d.currents.idd3n; });
  row_f("  IDD4R", [](S d) { return d.currents.idd4r; });
  row_f("  IDD4W", [](S d) { return d.currents.idd4w; });
  row_f("  IDD5B", [](S d) { return d.currents.idd5b; });
  row_f("  VDD", [](S d) { return d.currents.vdd; });
  std::printf("derived energy (pJ per chip)\n");
  row_f("  ACT+PRE", [](S d) { return d.energy.act_pj; });
  row_f("  RD burst", [](S d) { return d.energy.rd_burst_pj; });
  row_f("  WR burst", [](S d) { return d.energy.wr_burst_pj; });
  row_f("  REF", [](S d) { return d.energy.refresh_pj; });
}

int cmd_specs(int argc, char** argv) {
  std::optional<dram::Generation> only;
  for (int i = 2; i < argc; ++i) {
    const char* v = flag_value(argc, argv, i, "--dram");
    if (v != nullptr) {
      only = dram::parse_generation(v);
      if (!only) {
        std::fprintf(stderr,
                     "tracetool specs: --dram must be ddr3, ddr4, or ddr5, "
                     "got '%s'\n", v);
        return 2;
      }
    } else {
      std::fprintf(stderr, "tracetool specs: unknown flag '%s'\n", argv[i]);
      return 2;
    }
  }
  const dram::Generation all[] = {dram::Generation::kDdr3,
                                  dram::Generation::kDdr4,
                                  dram::Generation::kDdr5};
  bool first = true;
  for (dram::Generation g : all) {
    if (only && g != *only) continue;
    if (!first) std::printf("\n");
    first = false;
    print_spec_table(g);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(stderr, 2);
  const std::string cmd = argv[1];
  try {
    if (cmd == "record") return cmd_record(argc, argv);
    if (cmd == "info" && argc == 3) return cmd_info(argv[2]);
    if (cmd == "validate") return cmd_validate(argc, argv);
    if (cmd == "stats") return cmd_stats(argc, argv);
    if (cmd == "head") return cmd_head(argc, argv);
    if (cmd == "list-workloads") {
      print_workloads();
      return 0;
    }
    if (cmd == "specs") return cmd_specs(argc, argv);
    if (cmd == "--help" || cmd == "-h" || cmd == "help") {
      return usage(stdout, 0);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tracetool %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  return usage(stderr, 2);
}
