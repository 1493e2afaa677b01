// Warm-up classes are exact: a scheme warmed alone and warmed through its
// class (the class's first scheme) end in byte-identical states, and a run
// started from the shared state equals a run that warms up itself.  The
// bench sweep relies on this to warm once per (workload, class).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/system.hpp"

namespace eccsim::sim {
namespace {

std::vector<ecc::SchemeDesc> schemes_at(ecc::SystemScale scale) {
  std::vector<ecc::SchemeDesc> schemes;
  for (const auto id : ecc::all_schemes()) {
    schemes.push_back(ecc::make_scheme(id, scale));
  }
  return schemes;
}

SimOptions options_for(const std::string& workload) {
  SimOptions opts;
  opts.seed = trace::paper_sweep_seed(workload);
  opts.target_instructions = 20'000;
  return opts;
}

void expect_same_result(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.scheme, b.scheme);
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.mem_cycles, b.mem_cycles);
  EXPECT_EQ(a.ipc, b.ipc);
  EXPECT_EQ(a.mem.reads, b.mem.reads);
  EXPECT_EQ(a.mem.writes, b.mem.writes);
  EXPECT_EQ(a.mem.ecc_reads, b.mem.ecc_reads);
  EXPECT_EQ(a.mem.ecc_writes, b.mem.ecc_writes);
  EXPECT_EQ(a.mem.avg_read_latency, b.mem.avg_read_latency);
  EXPECT_EQ(a.mem.energy.activate_pj, b.mem.energy.activate_pj);
  EXPECT_EQ(a.mem.energy.read_pj, b.mem.energy.read_pj);
  EXPECT_EQ(a.mem.energy.write_pj, b.mem.energy.write_pj);
  EXPECT_EQ(a.mem.energy.refresh_pj, b.mem.energy.refresh_pj);
  EXPECT_EQ(a.mem.energy.background_pj, b.mem.energy.background_pj);
  EXPECT_TRUE(a.llc == b.llc);
  EXPECT_EQ(a.epi_pj, b.epi_pj);
  EXPECT_EQ(a.dynamic_epi_pj, b.dynamic_epi_pj);
  EXPECT_EQ(a.background_epi_pj, b.background_epi_pj);
  EXPECT_EQ(a.mapi, b.mapi);
  EXPECT_EQ(a.bandwidth_utilization, b.bandwidth_utilization);
  EXPECT_EQ(a.avg_read_latency, b.avg_read_latency);
}

/// Every scheme at `scale` on `workload_name`: warmed alone vs through its
/// class, compared by LLC image, the next 1,000 ops of every core, the next
/// request id, and the full RunResult.
void expect_classes_exact(ecc::SystemScale scale,
                          const std::string& workload_name) {
  const trace::WorkloadDesc& workload = trace::workload_by_name(workload_name);
  const std::vector<ecc::SchemeDesc> schemes = schemes_at(scale);
  const SimOptions opts = options_for(workload_name);
  const CpuConfig cpu;
  for (const auto& members : warm_classes(schemes, opts.dram_gen)) {
    const WarmState shared =
        SystemSim::warm(schemes[members.front()], workload, cpu, opts);
    for (const std::size_t si : members) {
      const ecc::SchemeDesc& scheme = schemes[si];
      SCOPED_TRACE(scheme.name + " on " + workload_name);
      const WarmState alone = SystemSim::warm(scheme, workload, cpu, opts);
      EXPECT_TRUE(alone.key == shared.key);
      EXPECT_TRUE(alone.llc == shared.llc) << "LLC images differ";
      EXPECT_EQ(alone.next_id, shared.next_id);
      trace::SyntheticSource a = alone.source;
      trace::SyntheticSource b = shared.source;
      for (unsigned c = 0; c < cpu.cores; ++c) {
        for (int k = 0; k < 1000; ++k) {
          const trace::MemOp x = a.next(c);
          const trace::MemOp y = b.next(c);
          ASSERT_EQ(x.line, y.line) << "core " << c << " op " << k;
          ASSERT_EQ(x.is_write, y.is_write) << "core " << c << " op " << k;
          ASSERT_EQ(x.gap, y.gap) << "core " << c << " op " << k;
        }
      }
      expect_same_result(SystemSim(scheme, workload, cpu, opts).run(),
                         SystemSim(scheme, workload, cpu, opts, &shared).run());
    }
  }
}

TEST(WarmClass, QuadAndDualSweepsHaveSixClasses) {
  // chipkill36, chipkill18 and RAIM (no maintenance traffic) share one
  // class; every other scheme reads its own ECC/XOR key.
  for (const auto scale : {ecc::SystemScale::kQuadEquivalent,
                           ecc::SystemScale::kDualEquivalent}) {
    const auto schemes = schemes_at(scale);
    const auto classes = warm_classes(schemes, dram::Generation::kDdr3);
    ASSERT_EQ(classes.size(), 6u);
    std::vector<std::string> first;
    for (const std::size_t si : classes.front()) {
      first.push_back(schemes[si].name);
    }
    EXPECT_EQ(first,
              (std::vector<std::string>{"chipkill36", "chipkill18", "raim"}));
  }
}

TEST(WarmClass, MultiprogrammedBin1SharesExactly) {
  expect_classes_exact(ecc::SystemScale::kQuadEquivalent, "omnetpp");
  expect_classes_exact(ecc::SystemScale::kDualEquivalent, "omnetpp");
}

TEST(WarmClass, ParsecSharesExactly) {
  expect_classes_exact(ecc::SystemScale::kQuadEquivalent, "facesim");
  expect_classes_exact(ecc::SystemScale::kDualEquivalent, "facesim");
}

TEST(WarmClass, Bin2SharesExactly) {
  expect_classes_exact(ecc::SystemScale::kQuadEquivalent, "lbm");
  expect_classes_exact(ecc::SystemScale::kDualEquivalent, "lbm");
}

TEST(WarmClass, RejectsStateOfAnotherRun) {
  const auto schemes = schemes_at(ecc::SystemScale::kQuadEquivalent);
  const trace::WorkloadDesc& omnetpp = trace::workload_by_name("omnetpp");
  SimOptions opts = options_for("omnetpp");
  const CpuConfig cpu;
  // chipkill36's class state, offered to another class, workload and seed.
  const WarmState state = SystemSim::warm(schemes[0], omnetpp, cpu, opts);
  EXPECT_NO_THROW(SystemSim(schemes[5], omnetpp, cpu, opts, &state));  // raim
  EXPECT_THROW(SystemSim(schemes[2], omnetpp, cpu, opts, &state),
               std::invalid_argument);  // lotecc5
  EXPECT_THROW(SystemSim(schemes[0], trace::workload_by_name("gcc"), cpu,
                         opts, &state),
               std::invalid_argument);
  SimOptions other_seed = opts;
  other_seed.seed += 1;
  EXPECT_THROW(SystemSim(schemes[0], omnetpp, cpu, other_seed, &state),
               std::invalid_argument);
  // Runs whose warm-up reads more than the class key warm up themselves.
  SimOptions faulty = opts;
  faulty.faulty_banks = {0};
  EXPECT_THROW(SystemSim(schemes[0], omnetpp, cpu, faulty, &state),
               std::invalid_argument);
  EXPECT_THROW(SystemSim::warm(schemes[0], omnetpp, cpu, faulty),
               std::invalid_argument);
}

}  // namespace
}  // namespace eccsim::sim
