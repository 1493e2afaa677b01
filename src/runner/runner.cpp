#include "runner/runner.hpp"

#include <chrono>
#include <mutex>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "runner/thread_pool.hpp"
#include "stats/scope.hpp"

namespace eccsim::runner {

Report run_cells(const std::vector<Cell>& cells, const RunOptions& opts) {
  STATS_SCOPE("runner.run_cells");
  Report report;
  report.cells.resize(cells.size());
  const unsigned threads =
      opts.threads != 0 ? opts.threads : default_thread_count();
  report.threads = threads;

  const auto sweep_start = std::chrono::steady_clock::now();
  std::mutex progress_mu;
  std::size_t done = 0;
  parallel_for(cells.size(), threads, [&](std::size_t i) {
    STATS_SCOPE("runner.cell");
    const auto t0 = std::chrono::steady_clock::now();
    report.cells[i].result = cells[i].work();
    const auto t1 = std::chrono::steady_clock::now();
    report.cells[i].wall_seconds =
        std::chrono::duration<double>(t1 - t0).count();
    if (opts.progress) {
      std::lock_guard<std::mutex> lock(progress_mu);
      opts.progress(++done, cells.size(), cells[i]);
    }
  });
  const auto sweep_end = std::chrono::steady_clock::now();
  report.wall_seconds =
      std::chrono::duration<double>(sweep_end - sweep_start).count();
  for (const auto& c : report.cells) report.cell_seconds += c.wall_seconds;
  return report;
}

std::uint64_t substream_seed(std::uint64_t root_seed, std::uint64_t stream) {
  // SplitMix64 walks a Weyl sequence, so seeding it at root^f(stream) and
  // drawing once gives well-separated, reproducible substream seeds.
  SplitMix64 sm(root_seed ^ (0x9e3779b97f4a7c15ULL * (stream + 1)));
  return sm.next();
}

Json to_json(const CellResult& cell) {
  const sim::RunResult& r = cell.result;
  Json j = Json::object();
  j.set("scheme", r.scheme);
  j.set("workload", r.workload);
  j.set("instructions", r.instructions);
  j.set("mem_cycles", r.mem_cycles);
  j.set("ipc", r.ipc);
  j.set("epi_pj", r.epi_pj);
  j.set("dynamic_epi_pj", r.dynamic_epi_pj);
  j.set("background_epi_pj", r.background_epi_pj);
  j.set("mapi", r.mapi);
  j.set("bandwidth_utilization", r.bandwidth_utilization);
  j.set("avg_read_latency", r.avg_read_latency);

  Json power = Json::object();
  power.set("activate_pj", r.mem.energy.activate_pj);
  power.set("read_pj", r.mem.energy.read_pj);
  power.set("write_pj", r.mem.energy.write_pj);
  power.set("refresh_pj", r.mem.energy.refresh_pj);
  power.set("background_pj", r.mem.energy.background_pj);
  power.set("total_pj", r.mem.energy.total_pj());
  j.set("energy", power);

  Json traffic = Json::object();
  traffic.set("reads", r.mem.reads);
  traffic.set("writes", r.mem.writes);
  traffic.set("ecc_reads", r.mem.ecc_reads);
  traffic.set("ecc_writes", r.mem.ecc_writes);
  j.set("traffic", traffic);

  Json llc = Json::object();
  llc.set("hits", r.llc.hits);
  llc.set("misses", r.llc.misses);
  llc.set("writebacks", r.llc.writebacks);
  j.set("llc", llc);

  j.set("wall_seconds", cell.wall_seconds);
  return j;
}

Json to_json(const Report& report) {
  Json j = Json::object();
  j.set("threads", static_cast<std::uint64_t>(report.threads));
  j.set("wall_seconds", report.wall_seconds);
  j.set("cell_seconds", report.cell_seconds);
  j.set("speedup", report.speedup());
  Json cells = Json::array();
  for (const auto& c : report.cells) cells.push_back(to_json(c));
  j.set("cells", cells);
  return j;
}

bool write_json(const std::string& path, const Json& doc) {
  return write_file(path, doc.dump() + "\n");
}

}  // namespace eccsim::runner
