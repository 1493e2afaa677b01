// Ablation: degraded-mode steady state (Sec. III-C).  After a bank pair
// is marked faulty, every application read to it also fetches the
// materialized ECC line (step B) and every write updates it (step D) --
// the paper expects step B to be the most expensive added step.  This
// bench marks a growing fraction of one channel's banks faulty and
// measures the traffic and energy cost.  Because faults mark at most a
// few bank pairs in practice (Fig. 8: ~0.4% of memory), the interesting
// row is the small-fraction one; the full-channel row is a worst case.
#include <cstdio>

#include "bench_common.hpp"

using namespace eccsim;

int main(int argc, char** argv) {
  eccsim::bench::init(argc, argv);
  std::printf("Ablation -- degraded-mode cost of faulty banks (steps B/D)\n\n");
  sim::SimOptions base_opts = bench::sim_options();

  const auto desc = ecc::make_scheme(ecc::SchemeId::kLotEcc5Parity,
                                     ecc::SystemScale::kQuadEquivalent);
  Table t({"faulty banks", "EPI (pJ/instr)", "MAPI", "ECC reads/KI",
           "IPC"});
  for (unsigned faulty_banks : {0u, 2u, 8u, 32u}) {
    sim::SimOptions opts = base_opts;
    unsigned added = 0;
    for (std::uint32_t rank = 0; rank < desc.ranks_per_channel && added <
         faulty_banks; ++rank) {
      for (std::uint32_t bank = 0; bank < 8 && added < faulty_banks;
           ++bank) {
        opts.faulty_banks.push_back((0u << 16) | (rank << 8) | bank);
        ++added;
      }
    }
    // With --stats each row gets its own collector; degraded rows are the
    // one place the Fig. 6 slow-path counter and trace instants fire.
    opts.stats = bench::new_collector(
        "milc", "lotecc5+parity-f" + std::to_string(faulty_banks));
    sim::SystemSim s(desc, trace::workload_by_name("milc"),
                     sim::CpuConfig{}, opts);
    const auto r = s.run();
    const double ki = static_cast<double>(r.instructions) / 1000.0;
    t.add_row({std::to_string(faulty_banks), Table::num(r.epi_pj, 1),
               Table::num(r.mapi, 4),
               Table::num(static_cast<double>(r.mem.ecc_reads) / ki, 2),
               Table::num(r.ipc, 2)});
  }
  bench::emit("ablation_degraded", t);
  std::printf(
      "The realistic post-fault state (one pair = 2 banks of 256) adds\n"
      "little; even a fully-degraded channel stays serviceable because the\n"
      "ECC lines cache well in the LLC (Sec. III-D).\n");
  return 0;
}
