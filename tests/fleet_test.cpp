// Tests for src/fleet: spec round-trip and config-hash stability, the
// pinned generation/scheme tables, the per-node failure model under a
// high-FIT stress spec, and the fleet run on faults::mc_run: its result
// pinned field by field, byte-identical at any thread count and chunk
// size, and never resumed from a checkpoint of another spec.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "dram/spec.hpp"
#include "ecc/scheme.hpp"
#include "faults/mc_engine.hpp"
#include "fleet/model.hpp"
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

std::string dump_of(const FleetResult& result) {
  return result_table(result).csv();
}

faults::McOptions mc_options(unsigned threads, unsigned chunk_size) {
  faults::McOptions opts;
  opts.threads = threads;
  opts.chunk_size = chunk_size;
  return opts;
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
  // the run's checkpoint tag must not depend on how the document is
  // spelled.
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
  const FleetResult r = run(spec, mc_options(2, 64));

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
// The run on faults::mc_run
// ---------------------------------------------------------------------------

TEST(FleetRun, StressFleetMatchesPinnedResult) {
  // Every field of the stress fleet's result, recorded from the sharded
  // coordinator that mc_run replaced; the doubles compare exactly.
  const FleetResult r = run(stress_spec(), mc_options(1, 0));
  EXPECT_EQ(r.name, "stress");
  EXPECT_EQ(r.config_hash, "2877a15a99c5fdaf");
  EXPECT_EQ(r.nodes, 500u);
  EXPECT_EQ(r.lifetime_hours, 43830.0);
  EXPECT_EQ(r.uncorrected_events, 2973.0);
  EXPECT_EQ(r.nodes_with_events, 459u);
  EXPECT_EQ(r.nodes_lost, 456u);
  EXPECT_EQ(r.downtime_hours, 15820568.012275374);
  EXPECT_EQ(r.annual_node_loss, 91.200000000000003);
  EXPECT_EQ(r.availability, 0.27809409024524878);
  EXPECT_EQ(r.availability_nines, 0.1415194028973224);
  EXPECT_EQ(r.events_p50, 7.0);
  EXPECT_EQ(r.events_p99, 13.0);
  EXPECT_EQ(r.events_p999, 15.0);
  EXPECT_TRUE(r.quantiles_exact);
  ASSERT_EQ(r.pools.size(), 2u);
  const PoolResult& a = r.pools[0];
  EXPECT_EQ(a.name, "isolated");
  EXPECT_EQ(a.nodes, 300u);
  EXPECT_EQ(a.uncorrected_events, 2684.0);
  EXPECT_EQ(a.nodes_with_events, 300u);
  EXPECT_EQ(a.nodes_lost, 299u);
  EXPECT_EQ(a.downtime_hours, 11675400.743947797);
  EXPECT_EQ(a.hard_faults, 11862.0);
  const PoolResult& b = r.pools[1];
  EXPECT_EQ(b.name, "parity");
  EXPECT_EQ(b.nodes, 200u);
  EXPECT_EQ(b.uncorrected_events, 289.0);
  EXPECT_EQ(b.nodes_with_events, 159u);
  EXPECT_EQ(b.nodes_lost, 157u);
  EXPECT_EQ(b.downtime_hours, 4145167.268327577);
  EXPECT_EQ(b.hard_faults, 6645.0);
}

TEST(FleetRun, ResultIsByteIdenticalAcrossThreadsAndChunkSizes) {
  const FleetSpec spec = stress_spec();
  const std::string reference = dump_of(run(spec, mc_options(1, 64)));
  EXPECT_EQ(dump_of(run(spec, mc_options(4, 64))), reference);
  // A different chunk size re-buckets the systems but must not change
  // the merged stream.
  EXPECT_EQ(dump_of(run(spec, mc_options(1, 17))), reference);
  EXPECT_EQ(dump_of(run(spec, mc_options(4, 17))), reference);
}

TEST(FleetRun, ChangedSpecNeverResumesAStaleCheckpoint) {
  const std::string path = testing::TempDir() + "/fleet_run.mcchunks";
  std::filesystem::remove(path);
  faults::McOptions opts = mc_options(2, 64);
  opts.checkpoint_path = path;

  const FleetSpec spec = stress_spec();
  const std::string reference = dump_of(run(spec, opts));
  const auto recorded = std::filesystem::file_size(path);
  // The same spec resumes every chunk: the result is unchanged and no
  // chunk is appended again.
  EXPECT_EQ(dump_of(run(spec, opts)), reference);
  EXPECT_EQ(std::filesystem::file_size(path), recorded);

  // Any spec change re-keys the run, so the recorded chunks never match.
  FleetSpec other = spec;
  other.pools[0].fit_per_chip += 1.0;
  EXPECT_EQ(dump_of(run(other, opts)),
            dump_of(run(other, mc_options(2, 64))));
  EXPECT_GT(std::filesystem::file_size(path), recorded);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace eccsim::fleet
