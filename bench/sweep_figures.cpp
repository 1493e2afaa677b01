// Figs. 9-17 and the XOR-cacheline ablation: every view of the paper's
// main evaluation, built from one sweep per system scale.  Each sweep runs
// every workload x every scheme once (bench::sweep) and writes
// sweep_<scale>.csv; every figure below is a table derived from those rows.
//
// The EPI figures (10-13) report, per workload, the reduction of
// LOT-ECC5+ECC Parity's metric relative to five chipkill-class baselines,
// and of RAIM+ECC Parity relative to RAIM, plus the Bin1/Bin2 averages the
// paper quotes in its text.  The ratio figures (14-17) report the parity
// schemes' metric normalized to the same baselines, with geometric-mean
// rows (ratios aggregate with the geometric mean).
#include <cstdio>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/stats.hpp"

using namespace eccsim;

namespace {

using Rows = std::vector<sim::RunResult>;
using Metric = double (*)(const sim::RunResult&);
using Builder = Table (*)(const Rows&, Metric);

/// Finds one run in a sweep; throws if missing.
const sim::RunResult& find(const Rows& rows, const std::string& scheme,
                           const std::string& workload) {
  for (const auto& r : rows) {
    if (r.scheme == scheme && r.workload == workload) return r;
  }
  throw std::out_of_range("no result for " + scheme + "/" + workload);
}

/// Bin (1 or 2) of a workload, per Fig. 9's classification.
int bin_of(const std::string& workload) {
  return trace::workload_by_name(workload).bin;
}

/// Workload names in presentation order (Bin1 first, then Bin2).
std::vector<std::string> workload_order() {
  std::vector<std::string> names;
  for (int bin : {1, 2}) {
    for (const auto& w : trace::paper_workloads()) {
      if (w.bin == bin) names.push_back(w.name);
    }
  }
  return names;
}

struct Comparison {
  const char* ours;
  const char* baseline;
  const char* label;
};

constexpr Comparison kComparisons[] = {
    {"lotecc5+parity", "chipkill36", "vs ck36"},
    {"lotecc5+parity", "chipkill18", "vs ck18"},
    {"lotecc5+parity", "lotecc9", "vs lot9"},
    {"lotecc5+parity", "multiecc", "vs multi"},
    {"lotecc5+parity", "lotecc5", "vs lot5"},
    {"raim+parity", "raim", "raim+P vs raim"},
};
constexpr std::size_t kNumComparisons = std::size(kComparisons);

Table comparison_table() {
  std::vector<std::string> header = {"workload", "bin"};
  for (const auto& c : kComparisons) header.emplace_back(c.label);
  return Table(header);
}

/// Fig. 9: bandwidth utilization of every workload on the 36-device
/// chipkill system, which defines Bin1 and Bin2.
Table bandwidth_table(const Rows& rows, Metric) {
  Table t({"workload", "bin", "bandwidth utilization", "GB/s"});
  // A dual-channel 36-device system moves 16B data per memory clock per
  // channel at 1 GHz: 32 GB/s per logical channel.
  const double peak_gbs = 2 * 32.0;
  for (const auto& name : workload_order()) {
    const auto& r = find(rows, "chipkill36", name);
    t.add_row({name, std::to_string(bin_of(name)),
               Table::pct(r.bandwidth_utilization),
               Table::num(r.bandwidth_utilization * peak_gbs, 1)});
  }
  return t;
}

/// Per-workload percent reduction of `metric`, then Bin1/Bin2 averages
/// (arithmetic mean of the per-workload reductions, as in the paper).
Table reduction_table(const Rows& rows, Metric metric) {
  Table t = comparison_table();
  std::vector<double> bin_acc[3][kNumComparisons];
  for (const auto& wl : workload_order()) {
    std::vector<std::string> row = {wl, std::to_string(bin_of(wl))};
    for (std::size_t i = 0; i < kNumComparisons; ++i) {
      const auto& c = kComparisons[i];
      const double red =
          bench::reduction_pct(metric(find(rows, c.baseline, wl)),
                               metric(find(rows, c.ours, wl)));
      row.push_back(Table::num(red, 1) + "%");
      bin_acc[bin_of(wl)][i].push_back(red);
    }
    t.add_row(row);
  }
  for (int bin : {1, 2}) {
    std::vector<std::string> row = {"Bin" + std::to_string(bin) + " avg",
                                    std::to_string(bin)};
    for (const auto& acc : bin_acc[bin]) {
      row.push_back(Table::num(mean(acc), 1) + "%");
    }
    t.add_row(row);
  }
  return t;
}

/// Per-workload "ours / baseline" ratio of `metric`, then a geometric-mean
/// row.
Table ratio_table(const Rows& rows, Metric metric) {
  Table t = comparison_table();
  std::vector<double> acc[kNumComparisons];
  for (const auto& wl : workload_order()) {
    std::vector<std::string> row = {wl, std::to_string(bin_of(wl))};
    for (std::size_t i = 0; i < kNumComparisons; ++i) {
      const auto& c = kComparisons[i];
      const double ratio = metric(find(rows, c.ours, wl)) /
                           metric(find(rows, c.baseline, wl));
      row.push_back(Table::num(ratio, 3));
      acc[i].push_back(ratio);
    }
    t.add_row(row);
  }
  std::vector<std::string> gm_row = {"geomean", "-"};
  for (const auto& a : acc) gm_row.push_back(Table::num(geomean(a), 3));
  t.add_row(gm_row);
  return t;
}

/// The Sec. III-D XOR-cacheline optimization.  Without it, every
/// application write (LLC dirty eviction) performs the full Eq. 1 parity
/// update in memory: read the old line, read the parity line, write the
/// parity line -- three extra accesses.  With it, updates compact in the
/// LLC and only evictions of XOR cachelines touch memory.
Table xor_cache_table(const Rows& rows, Metric) {
  Table t({"workload", "writebacks/KI", "parity traffic/KI (cached)",
           "parity traffic/KI (uncached = 3x writebacks)", "saving"});
  for (const auto& wl : workload_order()) {
    const auto& r = find(rows, "lotecc5+parity", wl);
    const double ki = static_cast<double>(r.instructions) / 1000.0;
    // Data writebacks = total writes minus ECC writes.
    const double wb = static_cast<double>(r.mem.writes - r.mem.ecc_writes);
    const double cached =
        static_cast<double>(r.mem.ecc_reads + r.mem.ecc_writes);
    const double uncached = 3.0 * wb;  // Step E without the optimization
    t.add_row({wl, Table::num(wb / ki, 2), Table::num(cached / ki, 2),
               Table::num(uncached / ki, 2),
               Table::num(uncached > 0 ? (1 - cached / uncached) * 100 : 0,
                          1) +
                   "%"});
  }
  return t;
}

double epi(const sim::RunResult& r) { return r.epi_pj; }
double dynamic_epi(const sim::RunResult& r) { return r.dynamic_epi_pj; }
double background_epi(const sim::RunResult& r) { return r.background_epi_pj; }
double ipc(const sim::RunResult& r) { return r.ipc; }
double mapi(const sim::RunResult& r) { return r.mapi; }

constexpr auto kQuad = ecc::SystemScale::kQuadEquivalent;
constexpr auto kDual = ecc::SystemScale::kDualEquivalent;

struct Figure {
  const char* csv;
  const char* title;
  ecc::SystemScale scale;
  Metric metric;
  Builder build;
};

// Paper values, for reading the tables (EXPERIMENTS.md compares them):
//   Fig. 10 Bin2 averages: 59.5% vs chipkill36, 48.9% vs chipkill18, 23.1%
//     vs LOT-ECC9, 20.5% vs Multi-ECC; Bin1: 46.0 / 34.6 / 12.8 / 11.3%;
//     RAIM+Parity vs RAIM: 22.6% (Bin2) / 18.5% (Bin1).  Fig. 11 has the
//     same trends with somewhat smaller parity-sharing benefits.
//   Figs. 12/13: the parity schemes win on dynamic EPI because they touch
//     fewer chips per request; smaller ranks also let chips sleep longer
//     under the close-page policy, cutting background EPI.
//   Figs. 14/15: slight improvement (<5%) over most baselines from higher
//     rank-level parallelism; up to ~20% slower than the 128B-line
//     chipkill36/RAIM on high-spatial-locality workloads (streamcluster).
//   Figs. 16/17: LOT-ECC5+Parity has ~13.3% more accesses than the
//     18-device chipkill (parity updates) but ~20% fewer than the 128B-line
//     36-device chipkill; the overhead is higher in Fig. 17 because each
//     XOR cacheline covers fewer data lines when fewer channels share a
//     parity (Sec. V-D).
const Figure kFigures[] = {
    {"fig09_workload_bandwidth",
     "Fig. 9 -- Workload bandwidth utilization, dual-channel commercial\n"
     "chipkill memory system\n"
     "Paper check: every workload consumes >= 1% of system bandwidth;\n"
     "Bin2 workloads sit well above Bin1.",
     kDual, nullptr, bandwidth_table},
    {"fig10_epi_quad",
     "Fig. 10 -- Memory EPI reduction, quad-channel-equivalent systems", kQuad,
     epi, reduction_table},
    {"fig11_epi_dual",
     "Fig. 11 -- Memory EPI reduction, dual-channel-equivalent systems", kDual,
     epi, reduction_table},
    {"fig12_dynamic_epi_quad",
     "Fig. 12 -- Dynamic EPI reduction, quad-channel-equivalent systems",
     kQuad, dynamic_epi, reduction_table},
    {"fig13_background_epi_quad",
     "Fig. 13 -- Background EPI reduction, quad-channel-equivalent systems",
     kQuad, background_epi, reduction_table},
    {"fig14_perf_quad",
     "Fig. 14 -- Performance normalized to baselines (quad-equivalent, >1 = "
     "faster)",
     kQuad, ipc, ratio_table},
    {"fig15_perf_dual",
     "Fig. 15 -- Performance normalized to baselines (dual-equivalent, >1 = "
     "faster)",
     kDual, ipc, ratio_table},
    {"fig16_mapi_quad",
     "Fig. 16 -- Memory accesses per instruction normalized to baselines "
     "(quad, <1 = fewer)",
     kQuad, mapi, ratio_table},
    {"fig17_mapi_dual",
     "Fig. 17 -- Memory accesses per instruction normalized to baselines "
     "(dual, <1 = fewer)",
     kDual, mapi, ratio_table},
    {"ablation_xor_cache",
     "Ablation -- XOR-cacheline compaction (Sec. III-D, Fig. 7)\n"
     "Without it, parity updates would roughly triple the write-path memory\n"
     "traffic; compaction eliminates the bulk of it.",
     kQuad, nullptr, xor_cache_table},
};

}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv);
  // One sweep per scale; its rows (and its warm-up states) are gone before
  // the next scale's sweep starts.
  for (const auto scale : {kQuad, kDual}) {
    const Rows rows = bench::sweep(scale);
    for (const Figure& f : kFigures) {
      if (f.scale != scale) continue;
      std::printf("%s\n\n", f.title);
      bench::emit(f.csv, f.build(rows, f.metric));
    }
  }
  return 0;
}
