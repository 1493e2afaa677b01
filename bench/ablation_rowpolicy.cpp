// Ablation: row-buffer policy (Sec. IV-B).  The paper adopts LOT-ECC's
// close-page policy because it lets idle ranks drop into sleep mode;
// open-page would win row hits on spatially-local streams but keeps ranks
// in active standby.  This bench runs both policies on a streaming and a
// low-rate workload and shows the trade the paper resolved in favor of
// close-page for energy.
#include <cstdio>

#include "bench_common.hpp"

using namespace eccsim;

int main(int argc, char** argv) {
  eccsim::bench::init(argc, argv);
  std::printf("Ablation -- close-page vs open-page row policy (Sec. IV-B)\n\n");
  const auto desc = ecc::make_scheme(ecc::SchemeId::kLotEcc5Parity,
                                     ecc::SystemScale::kQuadEquivalent);
  Table t({"workload", "policy", "EPI (pJ/instr)", "background EPI",
           "dynamic EPI", "IPC"});
  for (const char* wl : {"lbm", "sjeng"}) {
    for (auto policy : {dram::RowPolicy::kClosePage,
                        dram::RowPolicy::kOpenPage}) {
      sim::SimOptions opts = bench::sim_options();
      opts.row_policy = policy;
      sim::SystemSim s(desc, trace::workload_by_name(wl), sim::CpuConfig{},
                       opts);
      const auto r = s.run();
      t.add_row({wl,
                 policy == dram::RowPolicy::kClosePage ? "close-page"
                                                       : "open-page",
                 Table::num(r.epi_pj, 1),
                 Table::num(r.background_epi_pj, 1),
                 Table::num(r.dynamic_epi_pj, 1), Table::num(r.ipc, 2)});
    }
  }
  bench::emit("ablation_rowpolicy", t);
  std::printf(
      "Open-page trades activate energy (fewer ACTs on row hits) for\n"
      "background energy (rows pin ranks in active standby, blocking the\n"
      "sleep mode ECC Parity's small ranks exploit).  Close-page wins\n"
      "total EPI, which is why the paper configures it (Sec. IV-B).\n");
  return 0;
}
