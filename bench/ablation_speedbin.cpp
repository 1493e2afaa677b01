// Ablation for the Sec. V-D discussion: LOT-ECC5+ECC Parity issues ~13%
// more memory accesses per instruction than 18-device commercial chipkill;
// if memory bandwidth is the bottleneck that could cost performance.  The
// paper's remedy is a slightly faster DRAM speed bin: using [18] it
// estimates a 16% faster bin costs ~5% memory EPI -- tiny against the
// ~49% EPI advantage.  This bench measures exactly that trade with the
// simulator's speed-bin knob.
#include <cstdio>

#include "bench_common.hpp"

using namespace eccsim;

int main(int argc, char** argv) {
  eccsim::bench::init(argc, argv);
  std::printf("Ablation -- DRAM speed bin (Sec. V-D)\n\n");
  sim::SimOptions opts = bench::sim_options();

  Table t({"configuration", "EPI (pJ/instr)", "IPC", "MAPI",
           "EPI vs ck18"});
  const auto ck18 = sim::run_experiment(ecc::SchemeId::kChipkill18,
                                        ecc::SystemScale::kQuadEquivalent,
                                        "lbm", opts);
  t.add_row({"chipkill18 (baseline)", Table::num(ck18.epi_pj, 1),
             Table::num(ck18.ipc, 2), Table::num(ck18.mapi, 4), "--"});

  for (double speed : {1.0, 1.08, 1.16}) {
    ecc::SchemeDesc d = ecc::make_scheme(ecc::SchemeId::kLotEcc5Parity,
                                         ecc::SystemScale::kQuadEquivalent);
    d.speed_factor = speed;
    sim::SystemSim s(d, trace::workload_by_name("lbm"), sim::CpuConfig{},
                     opts);
    const auto r = s.run();
    char label[64];
    std::snprintf(label, sizeof label, "lotecc5+parity @ %.0f%% speed",
                  speed * 100);
    t.add_row({label, Table::num(r.epi_pj, 1), Table::num(r.ipc, 2),
               Table::num(r.mapi, 4),
               Table::num(bench::reduction_pct(ck18.epi_pj, r.epi_pj), 1) +
                   "% lower"});
  }
  bench::emit("ablation_speedbin", t);
  std::printf(
      "Paper check: the 116%% bin costs a few %% EPI relative to the 100%%\n"
      "bin -- small against the ~45-50%% reduction vs chipkill18 -- while\n"
      "recovering latency/bandwidth headroom for the parity updates.\n");
  return 0;
}
