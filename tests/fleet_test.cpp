// Tests for src/fleet: spec round-trip and config-hash stability, the
// pinned generation/scheme tables, the per-node failure model under a
// high-FIT stress spec, shard planning, byte-identity of the sharded
// coordinator (in-process and worker-process), and the fleetd service
// (cache hits via the per-request manifest flag, concurrent clients,
// queue backpressure).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dram/spec.hpp"
#include "ecc/scheme.hpp"
#include "faults/mc_engine.hpp"
#include "fleet/coordinator.hpp"
#include "fleet/model.hpp"
#include "fleet/service.hpp"
#include "fleet/spec.hpp"
#include "runner/json.hpp"

namespace eccsim::fleet {
namespace {

/// A small heterogeneous fleet with FIT rates cranked high enough that
/// coincident hard faults are common, so every code path (events, spare
/// depletion, both scheme classes) is exercised with a few hundred nodes.
FleetSpec stress_spec() {
  FleetSpec spec;
  spec.name = "stress";
  spec.seed = 99;
  spec.lifetime_hours = 5 * 8766.0;
  spec.window_hours = 72.0;
  spec.repair.spares = 3;
  PoolSpec a;
  a.name = "isolated";
  a.nodes = 300;
  a.dram = "ddr3";
  a.ecc = "chipkill36";
  a.channels = 4;
  a.ranks_per_channel = 2;
  a.chips_per_rank = 36;
  a.fit_per_chip = 20000.0;
  PoolSpec b;
  b.name = "parity";
  b.nodes = 200;
  b.dram = "ddr5";
  b.ecc = "raim+parity";
  b.channels = 8;
  b.ranks_per_channel = 2;
  b.chips_per_rank = 10;
  b.fit_per_chip = 20000.0;
  b.speed_factor = 1.5;
  spec.pools = {a, b};
  return spec;
}

/// stress_spec() shrunk for the service tests, renamed so each test's
/// jobs hash (and cache) independently.
FleetSpec tiny_spec(const std::string& name) {
  FleetSpec spec = stress_spec();
  spec.name = name;
  spec.scale_nodes(10);
  return spec;
}

std::string dump_of(const FleetResult& result) {
  return result_to_json(result).dump(2);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Value of `key` among a manifest's extra pairs, or "" when absent.
std::string manifest_extra(const std::string& path, const std::string& key) {
  const runner::Json doc = runner::Json::parse(slurp(path));
  if (!doc.contains("extra") || !doc.at("extra").contains(key)) return "";
  return doc.at("extra").at(key).as_string();
}

// ---------------------------------------------------------------------------
// Spec, hash, and the pinned tables
// ---------------------------------------------------------------------------

TEST(FleetSpec, JsonRoundTripPreservesEverything) {
  const FleetSpec spec = stress_spec();
  const FleetSpec back = spec_from_json(to_json(spec));
  EXPECT_EQ(to_json(back).dump(0), to_json(spec).dump(0));
  EXPECT_EQ(config_hash(back), config_hash(spec));
  EXPECT_EQ(back.total_nodes(), 500u);
  EXPECT_EQ(validate(back), "");
}

TEST(FleetSpec, HashIgnoresFieldOrderAndDefaulting) {
  // The same fleet written three ways: canonical, reordered, and with
  // every defaultable field omitted.  All must hash identically, because
  // the service's cache key must not depend on how the client spelled
  // the document.
  const std::string canonical =
      "{\"name\":\"n\",\"seed\":2014,\"pools\":[{\"name\":\"p\","
      "\"nodes\":10,\"dram\":\"ddr3\",\"ecc\":\"lotecc5+parity\","
      "\"channels\":8,\"ranks_per_channel\":4,\"chips_per_rank\":9,"
      "\"fit_per_chip\":44.0,\"speed_factor\":1.0}]}";
  const std::string reordered =
      "{\"pools\":[{\"fit_per_chip\":44.0,\"nodes\":10,\"name\":\"p\","
      "\"dram\":\"ddr3\",\"speed_factor\":1.0,\"chips_per_rank\":9,"
      "\"channels\":8,\"ranks_per_channel\":4,\"ecc\":\"lotecc5+parity\"}],"
      "\"seed\":2014,\"name\":\"n\"}";
  const std::string defaulted =
      "{\"name\":\"n\",\"pools\":[{\"name\":\"p\",\"nodes\":10}]}";
  const std::string h =
      config_hash(spec_from_json(runner::Json::parse(canonical)));
  EXPECT_EQ(config_hash(spec_from_json(runner::Json::parse(reordered))), h);
  EXPECT_EQ(config_hash(spec_from_json(runner::Json::parse(defaulted))), h);
}

TEST(FleetSpec, UnknownMembersThrow) {
  EXPECT_THROW(spec_from_json(runner::Json::parse(
                   "{\"pools\":[],\"sede\":1}")),
               std::runtime_error);
  EXPECT_THROW(spec_from_json(runner::Json::parse(
                   "{\"pools\":[{\"name\":\"p\",\"nodes\":1,"
                   "\"chanels\":8}]}")),
               std::runtime_error);
  EXPECT_THROW(spec_from_json(runner::Json::parse("[1,2]")),
               std::runtime_error);
}

TEST(FleetSpec, ValidateDiagnosesBadFleets) {
  FleetSpec spec = stress_spec();
  spec.pools.clear();
  EXPECT_NE(validate(spec), "");

  spec = stress_spec();
  spec.pools[0].dram = "lpddr4";
  EXPECT_NE(validate(spec).find("unknown dram"), std::string::npos);

  spec = stress_spec();
  spec.pools[0].ecc = "tripleecc";
  EXPECT_NE(validate(spec).find("unknown ecc"), std::string::npos);

  spec = stress_spec();
  spec.pools[1].channels = 1;  // cross-channel parity needs >= 2
  EXPECT_NE(validate(spec).find("channels"), std::string::npos);

  spec = stress_spec();
  spec.pools[0].nodes = 0;
  EXPECT_NE(validate(spec), "");
}

TEST(FleetSpec, GenFaultParamsMatchTheDramLayer) {
  // src/fleet deliberately does not include src/dram (layers.txt); this
  // pin is what keeps its private generation table honest.
  using dram::DeviceWidth;
  using dram::Generation;
  const struct {
    const char* name;
    Generation gen;
  } gens[] = {{"ddr3", Generation::kDdr3},
              {"ddr4", Generation::kDdr4},
              {"ddr5", Generation::kDdr5}};
  for (const auto& g : gens) {
    const auto params = gen_fault_params(g.name);
    ASSERT_TRUE(params.has_value()) << g.name;
    const dram::DramSpec ds = dram::spec_for(g.gen, DeviceWidth::kX8);
    EXPECT_EQ(params->banks_per_rank, ds.banks) << g.name;
    EXPECT_EQ(params->on_die_bit_coverage, ds.on_die_ecc.bit_fault_coverage)
        << g.name;
  }
  EXPECT_FALSE(gen_fault_params("lpddr4").has_value());
}

TEST(FleetSpec, SchemeClassCoversEveryTableIIScheme) {
  for (const ecc::SchemeId id : ecc::all_schemes()) {
    const std::string name = ecc::to_string(id);
    const auto cls = scheme_class(name);
    ASSERT_TRUE(cls.has_value()) << name;
    // The + parity variants are exactly the cross-channel class.
    EXPECT_EQ(cls == SchemeClass::kCrossParity,
              name.find("+parity") != std::string::npos)
        << name;
  }
  EXPECT_FALSE(scheme_class("secded").has_value());
}

// ---------------------------------------------------------------------------
// Model and accumulator
// ---------------------------------------------------------------------------

TEST(FleetModel, PoolLayoutIsContiguous) {
  const FleetModel model(stress_spec());
  EXPECT_EQ(model.nodes(), 500u);
  EXPECT_EQ(model.pool_of(0), 0u);
  EXPECT_EQ(model.pool_of(299), 0u);
  EXPECT_EQ(model.pool_of(300), 1u);
  EXPECT_EQ(model.pool_of(499), 1u);
  EXPECT_THROW(model.pool_of(500), std::out_of_range);
}

TEST(FleetModel, StressFleetProducesConsistentMetrics) {
  const FleetSpec spec = stress_spec();
  Coordinator coordinator(spec);
  RunOptions opts;
  opts.threads = 2;
  opts.chunk_size = 64;
  const FleetResult r = coordinator.run(opts);

  EXPECT_EQ(r.nodes, 500u);
  EXPECT_EQ(r.config_hash, config_hash(spec));
  // At 20k FIT/chip both pools see plenty of hard faults and events.
  EXPECT_GT(r.pools[0].hard_faults, 0.0);
  EXPECT_GT(r.pools[1].hard_faults, 0.0);
  EXPECT_GT(r.nodes_with_events, 0u);
  EXPECT_GT(r.uncorrected_events, 0.0);
  // Each failing node demands exactly one replacement, so depletion is
  // exact: everyone past the 3 spares is lost.
  ASSERT_GT(r.nodes_with_events, 3u);
  EXPECT_EQ(r.nodes_lost, r.nodes_with_events - 3u);
  EXPECT_GT(r.annual_node_loss, 0.0);
  EXPECT_GT(r.availability, 0.0);
  EXPECT_LT(r.availability, 1.0);
  EXPECT_GT(r.availability_nines, 0.0);
  // 500 nodes fit the reservoir exhaustively.
  EXPECT_TRUE(r.quantiles_exact);
  EXPECT_LE(r.events_p50, r.events_p99);
  EXPECT_LE(r.events_p99, r.events_p999);
}

// ---------------------------------------------------------------------------
// Sharded coordinator
// ---------------------------------------------------------------------------

TEST(FleetCoordinator, ShardPlanIsContiguousAndComplete) {
  for (const unsigned shards : {1u, 2u, 3u, 8u, 64u}) {
    const std::vector<WorkUnit> plan = shard_plan(17, shards);
    ASSERT_EQ(plan.size(), shards);
    std::uint64_t next = 0;
    for (const WorkUnit& u : plan) {
      EXPECT_EQ(u.chunk_lo, next);
      EXPECT_LE(u.chunk_lo, u.chunk_hi);
      next = u.chunk_hi;
    }
    EXPECT_EQ(next, 17u);
  }
  EXPECT_TRUE(shard_plan(0, 4)[3].chunk_lo == 0);
}

TEST(FleetCoordinator, MergedResultIsByteIdenticalAcrossShardCounts) {
  Coordinator coordinator(stress_spec());
  RunOptions base;
  base.chunk_size = 64;
  base.shards = 1;
  base.threads = 1;
  const std::string reference = dump_of(coordinator.run(base));
  for (const unsigned shards : {2u, 8u}) {
    RunOptions opts = base;
    opts.shards = shards;
    opts.threads = 4;
    EXPECT_EQ(dump_of(coordinator.run(opts)), reference) << shards;
  }
  // A different chunk size re-buckets the envelope but must not change
  // the merged stream.
  RunOptions rechunk = base;
  rechunk.chunk_size = 17;
  rechunk.shards = 3;
  EXPECT_EQ(dump_of(coordinator.run(rechunk)), reference);
}

TEST(FleetCoordinator, WorkUnitEnvelopeRoundTrips) {
  FleetSpec spec = tiny_spec("envelope");
  const FleetModel model(spec);
  const unsigned chunk_size = 16;
  const std::uint64_t nchunks = fleet_chunk_count(model.nodes(), chunk_size);
  ASSERT_GT(nchunks, 1u);
  std::ostringstream blob;
  compute_unit(model, 0, nchunks, chunk_size, blob);

  std::istringstream in(blob.str());
  const auto chunks = faults::mc_checkpoint_load(
      in, fleet_run_identity(spec, chunk_size), nchunks,
      [&](std::uint64_t ci) {
        return fleet_chunk_nodes(model.nodes(), chunk_size, ci);
      },
      kNodeFields);
  ASSERT_EQ(chunks.size(), nchunks);

  // Replaying the loaded chunks through the accumulator reproduces the
  // coordinator's result exactly -- the worker data path in miniature.
  FleetAccumulator acc(model);
  std::uint64_t node = 0;
  for (std::uint64_t ci = 0; ci < nchunks; ++ci) {
    const std::vector<double>& fields = chunks.at(ci);
    const unsigned count = fleet_chunk_nodes(model.nodes(), chunk_size, ci);
    ASSERT_EQ(fields.size(), count * kNodeFields);
    for (unsigned i = 0; i < count; ++i, ++node) {
      acc.add(node, fields.data() + i * kNodeFields);
    }
  }
  Coordinator coordinator(spec);
  RunOptions opts;
  opts.chunk_size = chunk_size;
  EXPECT_EQ(dump_of(acc.finalize()), dump_of(coordinator.run(opts)));
}

TEST(FleetCoordinator, MismatchedSpecNeverMatchesTheEnvelope) {
  FleetSpec spec = tiny_spec("envelope-a");
  const FleetModel model(spec);
  const unsigned chunk_size = 16;
  const std::uint64_t nchunks = fleet_chunk_count(model.nodes(), chunk_size);
  std::ostringstream blob;
  compute_unit(model, 0, nchunks, chunk_size, blob);

  FleetSpec other = spec;
  other.pools[0].fit_per_chip += 1.0;  // any spec change re-keys the run
  std::istringstream in(blob.str());
  const auto chunks = faults::mc_checkpoint_load(
      in, fleet_run_identity(other, chunk_size), nchunks,
      [&](std::uint64_t ci) {
        return fleet_chunk_nodes(model.nodes(), chunk_size, ci);
      },
      kNodeFields);
  EXPECT_TRUE(chunks.empty());
}

#ifdef ECCSIM_FLEETD_BINARY
TEST(FleetCoordinator, WorkerProcessesMatchInProcess) {
  const FleetSpec spec = tiny_spec("worker-identity");
  Coordinator coordinator(spec);
  RunOptions in_process;
  in_process.chunk_size = 16;
  in_process.shards = 3;
  in_process.threads = 2;
  const std::string reference = dump_of(coordinator.run(in_process));

  RunOptions worker;
  worker.mode = RunOptions::Mode::kWorkerProcess;
  worker.chunk_size = 16;
  worker.shards = 3;
  worker.worker_binary = ECCSIM_FLEETD_BINARY;
  worker.work_dir = testing::TempDir() + "/fleet_worker_units";
  EXPECT_EQ(dump_of(coordinator.run(worker)), reference);
}
#endif

// ---------------------------------------------------------------------------
// Service
// ---------------------------------------------------------------------------

runner::Json submit_request(const FleetSpec& spec, bool wait) {
  runner::Json req = make_request("submit");
  req.set("spec", to_json(spec));
  if (wait) req.set("wait", true);
  return req;
}

TEST(FleetService, RepeatedSubmitIsACacheHitWithoutResimulation) {
  const std::string dir = testing::TempDir() + "/fleet_svc_cache";
  std::filesystem::remove_all(dir);
  ServiceOptions opts;
  opts.socket_path = dir + ".sock";
  opts.results_dir = dir;
  Service service(opts);
  service.start();

  const FleetSpec spec = tiny_spec("cache-test");
  const runner::Json first =
      fleet_request(opts.socket_path, submit_request(spec, /*wait=*/true));
  ASSERT_TRUE(first.at("ok").as_bool()) << first.dump(0);
  EXPECT_FALSE(first.at("cache_hit").as_bool());
  EXPECT_EQ(first.at("state").as_string(), "done");
  EXPECT_EQ(first.at("hash").as_string(), config_hash(spec));

  // Same fleet, different spelling: defaults omitted where possible.
  const FleetSpec respelled = spec_from_json(to_json(spec));
  const runner::Json second =
      fleet_request(opts.socket_path, submit_request(respelled, false));
  ASSERT_TRUE(second.at("ok").as_bool());
  EXPECT_TRUE(second.at("cache_hit").as_bool());
  EXPECT_EQ(second.at("state").as_string(), "cached");

  // The per-request manifests record the miss then the hit -- the
  // "answered from cache without re-simulation" acceptance flag.
  EXPECT_EQ(manifest_extra(dir + "/manifests/req-1.json", "cache_hit"),
            "false");
  EXPECT_EQ(manifest_extra(dir + "/manifests/req-2.json", "cache_hit"),
            "true");
  EXPECT_EQ(manifest_extra(dir + "/manifests/req-2.json", "config_hash"),
            config_hash(spec));

  // The results op inlines the cached document byte for byte.
  runner::Json results = make_request("results");
  results.set("hash", config_hash(spec));
  const runner::Json inlined = fleet_request(opts.socket_path, results);
  ASSERT_TRUE(inlined.at("ok").as_bool());
  EXPECT_EQ(inlined.at("result").dump(2) + "\n",
            slurp(dir + "/cache/" + config_hash(spec) + ".json"));

  runner::Json status = make_request("status");
  status.set("hash", config_hash(spec));
  EXPECT_EQ(fleet_request(opts.socket_path, status).at("state").as_string(),
            "cached");
  service.stop();
}

TEST(FleetService, ServesConcurrentClients) {
  const std::string dir = testing::TempDir() + "/fleet_svc_concurrent";
  std::filesystem::remove_all(dir);
  ServiceOptions opts;
  opts.socket_path = dir + ".sock";
  opts.results_dir = dir;
  Service service(opts);
  service.start();

  // Two clients submit the same fleet concurrently, both blocking on
  // completion; a third probes liveness while the job runs.  Every
  // session must get a well-formed answer.
  const FleetSpec spec = tiny_spec("concurrent-test");
  runner::Json r1, r2, r3;
  std::thread c1([&] {
    r1 = fleet_request(opts.socket_path, submit_request(spec, true));
  });
  std::thread c2([&] {
    r2 = fleet_request(opts.socket_path, submit_request(spec, true));
  });
  std::thread c3([&] {
    r3 = fleet_request(opts.socket_path, make_request("ping"));
  });
  c1.join();
  c2.join();
  c3.join();
  EXPECT_TRUE(r1.at("ok").as_bool()) << r1.dump(0);
  EXPECT_TRUE(r2.at("ok").as_bool()) << r2.dump(0);
  EXPECT_TRUE(r3.at("ok").as_bool()) << r3.dump(0);
  // Both submits resolve to the same finished job whatever interleaving
  // occurred (done from the queue, or cached if the other finished
  // first); the job ran at most... exactly once: one cache file exists.
  for (const runner::Json* r : {&r1, &r2}) {
    const std::string state = r->at("state").as_string();
    EXPECT_TRUE(state == "done" || state == "cached") << r->dump(0);
  }
  EXPECT_TRUE(std::filesystem::exists(dir + "/cache/" + config_hash(spec) +
                                      ".json"));
  EXPECT_EQ(service.requests_served(), 3u);
  service.stop();
}

TEST(FleetService, BoundedQueueRejectsWithRetryable) {
  const std::string dir = testing::TempDir() + "/fleet_svc_queue";
  std::filesystem::remove_all(dir);
  // Stall every job so the one-slot queue can be filled deterministically.
  ::setenv("ECCSIM_FLEET_JOB_DELAY_MS", "500", 1);
  ServiceOptions opts;
  opts.socket_path = dir + ".sock";
  opts.results_dir = dir;
  opts.queue_capacity = 1;
  Service service(opts);
  service.start();

  const runner::Json a =
      fleet_request(opts.socket_path, submit_request(tiny_spec("qa"), false));
  ASSERT_TRUE(a.at("ok").as_bool());
  // Wait until the executor has picked job A up (freeing the queue slot).
  runner::Json status = make_request("status");
  status.set("hash", a.at("hash").as_string());
  for (int i = 0; i < 200; ++i) {
    const runner::Json s = fleet_request(opts.socket_path, status);
    if (s.at("state").as_string() != "queued") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  const runner::Json b =
      fleet_request(opts.socket_path, submit_request(tiny_spec("qb"), false));
  ASSERT_TRUE(b.at("ok").as_bool());
  EXPECT_EQ(b.at("state").as_string(), "queued");

  // Queue full: B holds the only slot while A stalls in the executor.
  const runner::Json c =
      fleet_request(opts.socket_path, submit_request(tiny_spec("qc"), false));
  EXPECT_FALSE(c.at("ok").as_bool());
  EXPECT_NE(c.at("error").as_string().find("queue full"), std::string::npos);
  EXPECT_TRUE(c.at("retryable").as_bool());
  ::unsetenv("ECCSIM_FLEET_JOB_DELAY_MS");
  service.stop();
}

TEST(FleetService, RejectsMalformedRequests) {
  const std::string dir = testing::TempDir() + "/fleet_svc_reject";
  std::filesystem::remove_all(dir);
  ServiceOptions opts;
  opts.socket_path = dir + ".sock";
  opts.results_dir = dir;
  Service service(opts);
  service.start();

  runner::Json bad = runner::Json::object();
  bad.set("op", "submit");  // no eccsim.fleetreq/1 envelope
  EXPECT_FALSE(fleet_request(opts.socket_path, bad).at("ok").as_bool());

  EXPECT_FALSE(fleet_request(opts.socket_path, make_request("sumbit"))
                   .at("ok")
                   .as_bool());

  runner::Json invalid = make_request("submit");
  invalid.set("spec", runner::Json::parse(
                          "{\"pools\":[{\"name\":\"p\",\"nodes\":1,"
                          "\"channels\":1}]}"));
  const runner::Json resp = fleet_request(opts.socket_path, invalid);
  EXPECT_FALSE(resp.at("ok").as_bool());
  EXPECT_NE(resp.at("error").as_string().find("channels"),
            std::string::npos);
  service.stop();
}

}  // namespace
}  // namespace eccsim::fleet
