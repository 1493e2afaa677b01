// Fleet demo: the fault Monte Carlo at datacenter scale (src/fleet,
// docs/ARCHITECTURE.md).  examples/fleet_demo.json is a heterogeneous fleet
// -- ddr3/ddr4/ddr5 pools mixing isolated and cross-parity ECC schemes
// under one spare-node policy -- and each node is one system of
// faults::mc_run, so RUNNER_THREADS, --mc-chunk, --mc-checkpoint resume,
// the heartbeat and the mc.* stats apply as to any MC bench.  --quick and
// --smoke shrink every pool by the ratio bench::mc_systems applies to a
// system budget (1/5 and 1/20).
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <sstream>

#include "bench_common.hpp"
#include "fleet/model.hpp"
#include "fleet/spec.hpp"
#include "obs/manifest.hpp"
#include "runner/json.hpp"

using namespace eccsim;

namespace {

/// The validated demo spec; an unreadable or invalid one fails the run.
fleet::FleetSpec load_spec(const char* path) {
  std::string diag;
  try {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    fleet::FleetSpec spec =
        fleet::spec_from_json(runner::Json::parse(text.str()));
    diag = fleet::validate(spec);
    if (diag.empty()) return spec;
  } catch (const std::exception& e) {
    diag = e.what();
  }
  std::fprintf(stderr, "fleet_demo: %s: %s\n", path, diag.c_str());
  obs::note_exit_code(1);
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv);
  fleet::FleetSpec spec = load_spec(ECCSIM_FLEET_SPEC);
  const auto nodes = static_cast<unsigned>(spec.total_nodes());
  spec.scale_nodes(nodes / bench::mc_systems(nodes));
  const fleet::FleetResult result = fleet::run(spec, bench::mc_options());
  std::printf(
      "Fleet demo -- %s: %" PRIu64 " nodes in %zu pools over %.0f hours, "
      "%" PRId64 " spares (negative = unlimited)\n\n",
      spec.name.c_str(), spec.total_nodes(), spec.pools.size(),
      spec.lifetime_hours, spec.repair.spares);
  bench::emit("fleet_demo", fleet::result_table(result));
  return 0;
}
