// google-benchmark microbenchmarks for the .ecctrace subsystem: chunk
// codec encode/decode, CRC-32, full-file writer/reader throughput, and
// ReplaySource::next().  Engineering benchmarks for regression tracking,
// not paper figures.  Besides the console table, results land in
// results/microbench_tracefile.json (results/smoke/ under --smoke) beside
// the run manifest; items/s counts trace records (requests), bytes/s
// counts encoded payload.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "microbench_main.hpp"
#include "trace/workload.hpp"
#include "tracefile/codec.hpp"
#include "tracefile/crc32.hpp"
#include "tracefile/reader.hpp"
#include "tracefile/replay.hpp"
#include "tracefile/writer.hpp"

using namespace eccsim;

namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// Realistic pre-LLC chunk: generator output, not uniform noise, so the
/// delta+varint codec sees the compressibility it was designed for.
std::vector<tracefile::PreOp> generated_chunk(std::size_t n) {
  const auto& desc = trace::workload_by_name("mcf");
  std::vector<trace::CoreGenerator> gens;
  for (unsigned c = 0; c < 8; ++c) gens.emplace_back(desc, c, 8, 1);
  std::vector<tracefile::PreOp> ops(n);
  for (std::size_t i = 0; i < n; ++i) {
    const unsigned core = static_cast<unsigned>(i % 8);
    ops[i].core = core;
    ops[i].op = gens[core].next();
  }
  return ops;
}

void BM_EncodePreChunk(benchmark::State& state) {
  const auto ops = generated_chunk(tracefile::kDefaultOpsPerChunk);
  std::size_t payload_bytes = 0;
  for (auto _ : state) {
    const std::string payload = tracefile::encode_pre_chunk(ops);
    payload_bytes = payload.size();
    benchmark::DoNotOptimize(payload.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ops.size()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload_bytes));
  state.SetLabel(std::to_string(payload_bytes * 8 / ops.size() / 8) +
                 " bytes/op");
}
BENCHMARK(BM_EncodePreChunk);

void BM_DecodePreChunk(benchmark::State& state) {
  const auto ops = generated_chunk(tracefile::kDefaultOpsPerChunk);
  const std::string payload = tracefile::encode_pre_chunk(ops);
  std::vector<tracefile::PreOp> out;
  for (auto _ : state) {
    tracefile::decode_pre_chunk(
        reinterpret_cast<const unsigned char*>(payload.data()),
        payload.size(), static_cast<std::uint32_t>(ops.size()), out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ops.size()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload.size()));
}
BENCHMARK(BM_DecodePreChunk);

void BM_Crc32(benchmark::State& state) {
  const auto ops = generated_chunk(tracefile::kDefaultOpsPerChunk);
  const std::string payload = tracefile::encode_pre_chunk(ops);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tracefile::crc32(payload.data(), payload.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload.size()));
}
BENCHMARK(BM_Crc32);

void BM_WriteTraceFile(benchmark::State& state) {
  const auto ops = generated_chunk(32 * tracefile::kDefaultOpsPerChunk);
  const std::string path = temp_path("microbench_write.ecctrace");
  tracefile::TraceMeta meta;
  meta.point = tracefile::CapturePoint::kPreLlc;
  meta.cores = 8;
  meta.workload = "mcf";
  std::uint64_t file_bytes = 0;
  for (auto _ : state) {
    tracefile::TraceWriter writer(path, meta);
    for (const auto& rec : ops) writer.append(rec.op, rec.core);
    writer.close();
    file_bytes = writer.counters().file_bytes;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ops.size()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(file_bytes));
  std::remove(path.c_str());
}
BENCHMARK(BM_WriteTraceFile);

void BM_ReadTraceFile(benchmark::State& state) {
  const auto ops = generated_chunk(32 * tracefile::kDefaultOpsPerChunk);
  const std::string path = temp_path("microbench_read.ecctrace");
  tracefile::TraceMeta meta;
  meta.point = tracefile::CapturePoint::kPreLlc;
  meta.cores = 8;
  meta.workload = "mcf";
  {
    tracefile::TraceWriter writer(path, meta);
    for (const auto& rec : ops) writer.append(rec.op, rec.core);
    writer.close();
  }
  const auto file_bytes = std::filesystem::file_size(path);
  for (auto _ : state) {
    tracefile::TraceReader reader(path);
    tracefile::PreOp rec;
    std::uint64_t n = 0;
    while (reader.next(rec)) ++n;
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ops.size()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(file_bytes));
  std::remove(path.c_str());
}
BENCHMARK(BM_ReadTraceFile);

void BM_ReplaySourceNext(benchmark::State& state) {
  const std::string path = temp_path("microbench_replay.ecctrace");
  const std::uint64_t ops_per_core = 64 * 1024;
  tracefile::record_workload_trace(trace::workload_by_name("mcf"), 8,
                                   ops_per_core, 1, path);
  std::uint64_t pulled = 0;
  for (auto _ : state) {
    state.PauseTiming();
    tracefile::ReplaySource replay(path);
    state.ResumeTiming();
    for (std::uint64_t i = 0; i < ops_per_core; ++i) {
      for (unsigned c = 0; c < 8; ++c) {
        benchmark::DoNotOptimize(replay.next(c));
      }
    }
    pulled += ops_per_core * 8;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(pulled));
  std::remove(path.c_str());
}
BENCHMARK(BM_ReplaySourceNext);

}  // namespace

int main(int argc, char** argv) {
  return bench::microbench_main("microbench_tracefile", "requests_per_second",
                                argc, argv);
}
