// Ablation: the close-page + rank power-down policy (Sec. IV-B).  The
// paper follows LOT-ECC in choosing close-page so idle ranks can sleep;
// this is what converts "fewer chips per rank" into *background* energy
// savings (Fig. 13), not just dynamic savings.  Disabling power-down
// shows how much of ECC Parity's advantage depends on that policy.
#include <cstdio>

#include "bench_common.hpp"

using namespace eccsim;

int main(int argc, char** argv) {
  eccsim::bench::init(argc, argv);
  std::printf(
      "Ablation -- rank power-down under the close-page policy "
      "(Sec. IV-B)\n\n");
  sim::SimOptions opts = bench::sim_options();

  Table t({"scheme", "power-down", "EPI (pJ/instr)", "background EPI",
           "bg share"});
  for (const auto id : {ecc::SchemeId::kChipkill36,
                        ecc::SchemeId::kLotEcc5Parity}) {
    for (bool pd : {true, false}) {
      ecc::SchemeDesc d =
          ecc::make_scheme(id, ecc::SystemScale::kQuadEquivalent);
      sim::SimOptions o = opts;
      o.powerdown_enabled = pd;
      sim::SystemSim s(d, trace::workload_by_name("sjeng"),
                       sim::CpuConfig{}, o);
      const auto r = s.run();
      t.add_row({ecc::to_string(id), pd ? "on" : "off",
                 Table::num(r.epi_pj, 1),
                 Table::num(r.background_epi_pj, 1),
                 Table::pct(r.background_epi_pj / r.epi_pj)});
    }
  }
  bench::emit("ablation_powerdown", t);
  std::printf(
      "Without sleep, background energy balloons for every scheme and the\n"
      "small-rank advantage compresses -- the paper's close-page choice is\n"
      "load-bearing for the Fig. 13 background savings.\n");
  return 0;
}
