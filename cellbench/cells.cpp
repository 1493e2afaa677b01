#include "cells.hpp"

#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>

#include "common/rng.hpp"
#include "tracefile/replay.hpp"

namespace cellbench {

namespace {

constexpr ecc::SystemScale kScale = ecc::SystemScale::kQuadEquivalent;

/// Faulty-bank counts of the degraded cells, all on channel 0.
constexpr unsigned kFaultyBanks[] = {0, 2, 8};

std::string trace_path(const std::string& dir, const std::string& name) {
  return dir + "/" + name + ".ecctrace";
}

/// Banks 0.. of rank 0, then rank 1, ... on channel 0: the Fig. 6
/// degraded-mode layout ablation_degraded uses.
std::vector<std::uint32_t> faulty_banks(const ecc::SchemeDesc& scheme,
                                        unsigned count) {
  std::vector<std::uint32_t> keys;
  for (std::uint32_t rank = 0;
       rank < scheme.ranks_per_channel && keys.size() < count; ++rank) {
    for (std::uint32_t bank = 0; bank < 8 && keys.size() < count; ++bank) {
      keys.push_back((0u << 16) | (rank << 8) | bank);
    }
  }
  if (keys.size() != count) {
    throw std::invalid_argument("cellbench: " + scheme.name + " has fewer than " +
                                std::to_string(count) + " banks on channel 0");
  }
  return keys;
}

std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::map<std::string, std::string> read_rows(const std::string& path,
                                             std::size_t key_fields) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cellbench: cannot read " + path);
  std::map<std::string, std::string> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::size_t cut = 0;
    for (std::size_t i = 0; i < key_fields; ++i) {
      cut = line.find(',', cut);
      if (cut == std::string::npos) break;
      ++cut;
    }
    if (cut == std::string::npos || cut == 0) continue;
    rows[line.substr(0, cut - 1)] = line;
  }
  return rows;
}

}  // namespace

const std::vector<std::string>& benchmark_workloads() {
  static const std::vector<std::string> kNames = {"bin1_sweep", "bin2_sweep",
                                                  "replay_degraded"};
  return kNames;
}

std::vector<std::string> paper_workloads_of(const std::string& workload) {
  if (workload == "bin1_sweep") {
    std::vector<std::string> names;
    for (const auto& w : trace::paper_workloads()) {
      if (w.bin == 1) names.push_back(w.name);
    }
    return names;
  }
  if (workload == "bin2_sweep") {
    // Pointer-chasing (mcf, canneal) and streaming (lbm, streamcluster),
    // with write-heavy lbm beside read-heavy streamcluster.
    return {"mcf", "lbm", "canneal", "streamcluster"};
  }
  if (workload == "replay_degraded") return {"milc", "omnetpp"};
  throw std::invalid_argument("cellbench: unknown workload '" + workload + "'");
}

bool replays(const std::string& workload) {
  return workload == "replay_degraded";
}

std::uint64_t workload_seed(std::uint64_t root, std::size_t index) {
  SplitMix64 sm(root ^ (0x9e3779b97f4a7c15ULL * (index + 1)));
  return sm.next();
}

std::vector<Cell> make_cells(const std::string& workload, std::uint64_t root,
                             const std::string& trace_dir) {
  std::vector<ecc::SchemeId> schemes = ecc::all_schemes();
  std::vector<unsigned> faults = {0};
  if (replays(workload)) {
    schemes = {ecc::SchemeId::kLotEcc5Parity, ecc::SchemeId::kRaimParity};
    faults.assign(std::begin(kFaultyBanks), std::end(kFaultyBanks));
  }
  std::vector<Cell> cells;
  for (const auto& name : paper_workloads_of(workload)) {
    const trace::WorkloadDesc& desc = trace::workload_by_name(name);
    for (const auto id : schemes) {
      for (const unsigned f : faults) {
        Cell cell;
        cell.scheme = ecc::make_scheme(id, kScale);
        cell.workload = &desc;
        cell.id = name + "/" + cell.scheme.name;
        cell.opts.target_instructions = kTargetInstructions;
        cell.opts.seed = workload_seed(root, trace::workload_index(name));
        cell.opts.dram_gen = dram::Generation::kDdr3;
        if (replays(workload)) {
          cell.id += "/f" + std::to_string(f);
          cell.opts.faulty_banks = faulty_banks(cell.scheme, f);
          cell.opts.trace_in = trace_path(trace_dir, name);
        }
        cells.push_back(std::move(cell));
      }
    }
  }
  return cells;
}

void record_traces(const std::string& workload, std::uint64_t root,
                   const std::string& trace_dir) {
  for (const auto& name : paper_workloads_of(workload)) {
    tracefile::record_workload_trace(
        trace::workload_by_name(name), sim::CpuConfig{}.cores,
        kReplayOpsPerCore, workload_seed(root, trace::workload_index(name)),
        trace_path(trace_dir, name));
  }
}

void load_golden(std::vector<Cell>& cells, const std::string& workload,
                 const std::string& repo_root) {
  if (replays(workload)) {
    // Rows: cell id, then result_row and llc_row of the live-stimulus run.
    const std::string path =
        repo_root + "/cellbench/expected/" + workload + ".csv";
    const auto rows = read_rows(path, 1);
    for (auto& cell : cells) {
      const auto it = rows.find(cell.id);
      if (it == rows.end()) {
        throw std::runtime_error("cellbench: no row for " + cell.id + " in " +
                                 path);
      }
      const std::string rest = it->second.substr(cell.id.size() + 1);
      // The last three fields are the LLC counters.
      std::size_t cut = rest.size();
      for (int i = 0; i < 3 && cut != std::string::npos && cut > 0; ++i) {
        cut = rest.rfind(',', cut - 1);
      }
      if (cut == std::string::npos || cut == 0) {
        throw std::runtime_error("cellbench: malformed row for " + cell.id +
                                 " in " + path);
      }
      cell.expected = {rest.substr(0, cut), rest.substr(cut + 1)};
    }
    return;
  }
  const std::string path = repo_root + "/bench_results/sweep_quad.csv";
  const auto rows = read_rows(path, 2);
  for (auto& cell : cells) {
    const std::string key = cell.scheme.name + "," + cell.workload->name;
    const auto it = rows.find(key);
    if (it == rows.end()) {
      throw std::runtime_error("cellbench: no row for " + key + " in " + path);
    }
    cell.expected = {it->second, ""};
  }
}

std::string result_row(const sim::RunResult& r) {
  return r.scheme + "," + r.workload + "," + std::to_string(r.instructions) +
         "," + std::to_string(r.mem_cycles) + "," + fmt(r.ipc) + "," +
         fmt(r.epi_pj) + "," + fmt(r.dynamic_epi_pj) + "," +
         fmt(r.background_epi_pj) + "," + fmt(r.mapi) + "," +
         fmt(r.bandwidth_utilization) + "," + fmt(r.avg_read_latency) + "," +
         std::to_string(r.mem.reads) + "," + std::to_string(r.mem.writes) +
         "," + std::to_string(r.mem.ecc_reads) + "," +
         std::to_string(r.mem.ecc_writes);
}

std::string llc_row(const sim::RunResult& r) {
  return std::to_string(r.llc.hits) + "," + std::to_string(r.llc.misses) +
         "," + std::to_string(r.llc.writebacks);
}

std::string check(const Cell& cell, const sim::RunResult& r) {
  if (r.instructions < cell.opts.target_instructions) {
    return "committed " + std::to_string(r.instructions) + " of " +
           std::to_string(cell.opts.target_instructions) + " instructions";
  }
  const std::string row = result_row(r);
  if (!cell.expected.row.empty() && row != cell.expected.row) {
    return "result " + row + " != expected " + cell.expected.row;
  }
  const std::string llc = llc_row(r);
  if (!cell.expected.llc.empty() && llc != cell.expected.llc) {
    return "llc " + llc + " != expected " + cell.expected.llc;
  }
  return "";
}

void adopt(Cell& cell, const sim::RunResult& r) {
  if (cell.expected.row.empty()) cell.expected.row = result_row(r);
  if (cell.expected.llc.empty()) cell.expected.llc = llc_row(r);
}

}  // namespace cellbench
