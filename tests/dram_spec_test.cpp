// Tests for the pluggable DRAM spec layer (DDR3/DDR4/DDR5).
//
// The DDR3 section pins every field of micron_2gb() against the literal
// constants of the pre-spec-layer ddr3_params tables, so the refactor that
// introduced DramSpec can never drift from the paper-faithful device (the
// golden traces and the identity.goldens ctest pin the end-to-end
// behavior; this pins the inputs field by field).  The DDR4/DDR5 sections
// unit-test the generation-specific protocol rules -- bank-group CAS/ACT
// spacing, same-bank refresh rotation, per-set refresh blackouts -- against
// the extended protocol checker, plus the spec geometry helpers, the
// on-die-ECC fault filter, and the sub-channel planes of the parity layout.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "check/protocol_checker.hpp"
#include "dram/channel.hpp"
#include "dram/spec.hpp"
#include "ecc/scheme.hpp"
#include "eccparity/layout.hpp"
#include "faults/fault_model.hpp"

namespace eccsim {
namespace {

using dram::DeviceWidth;
using dram::DramSpec;
using dram::Generation;

// ---------------------------------------------------------------------------
// DDR3 bit-identity: micron_2gb() vs the legacy ddr3_params constants.

/// The die-rev-D base timing table as it existed in ddr3_params.cpp; the
/// spec layer splits tRRD/tCCD into _S/_L, which must stay equal for DDR3.
void expect_ddr3_base_timing(const DramSpec& d, unsigned tRRD, unsigned tFAW) {
  const auto& t = d.timing;
  EXPECT_EQ(t.tCK, 1u);
  EXPECT_EQ(t.tRCD, 14u);
  EXPECT_EQ(t.tCL, 14u);
  EXPECT_EQ(t.tCWL, 10u);
  EXPECT_EQ(t.tRP, 14u);
  EXPECT_EQ(t.tRAS, 35u);
  EXPECT_EQ(t.tRC, 49u);
  EXPECT_EQ(t.tRRD_S, tRRD);
  EXPECT_EQ(t.tRRD_L, tRRD);  // no bank groups: _S == _L == legacy tRRD
  EXPECT_EQ(t.tFAW, tFAW);
  EXPECT_EQ(t.tWR, 15u);
  EXPECT_EQ(t.tWTR, 8u);
  EXPECT_EQ(t.tRTP, 8u);
  EXPECT_EQ(t.tCCD_S, 4u);
  EXPECT_EQ(t.tCCD_L, 4u);  // no bank groups: _S == _L == legacy tCCD
  EXPECT_EQ(t.tBurst, 4u);
  EXPECT_EQ(t.tRFC, 160u);
  EXPECT_EQ(t.tREFI, 7800u);
  EXPECT_EQ(t.tXP, 6u);
  EXPECT_EQ(t.tCKE, 6u);
  EXPECT_EQ(t.tRTW, 8u);
}

TEST(DramSpecDdr3, X4MatchesLegacyConstants) {
  const DramSpec d = dram::micron_2gb(DeviceWidth::kX4);
  EXPECT_EQ(d.generation, Generation::kDdr3);
  EXPECT_EQ(d.capacity_mbit, 2048u);
  EXPECT_EQ(d.banks, 8u);
  EXPECT_EQ(d.bank_groups, 1u);
  EXPECT_EQ(d.sub_channels, 1u);
  EXPECT_EQ(d.rows, 32768u);
  EXPECT_EQ(d.columns, 2048u);
  EXPECT_EQ(d.page_bytes, 1024u);
  EXPECT_EQ(d.refresh, dram::RefreshPolicy::kAllBank);
  EXPECT_FALSE(d.on_die_ecc.enabled);
  expect_ddr3_base_timing(d, 6, 30);
  EXPECT_DOUBLE_EQ(d.currents.idd0, 95);
  EXPECT_DOUBLE_EQ(d.currents.idd2p, 12);
  EXPECT_DOUBLE_EQ(d.currents.idd2n, 45);
  EXPECT_DOUBLE_EQ(d.currents.idd3p, 50);
  EXPECT_DOUBLE_EQ(d.currents.idd3n, 62);
  EXPECT_DOUBLE_EQ(d.currents.idd4r, 140);
  EXPECT_DOUBLE_EQ(d.currents.idd4w, 145);
  EXPECT_DOUBLE_EQ(d.currents.idd5b, 235);
  EXPECT_DOUBLE_EQ(d.currents.vdd, 1.5);
}

TEST(DramSpecDdr3, X8MatchesLegacyConstants) {
  const DramSpec d = dram::micron_2gb(DeviceWidth::kX8);
  EXPECT_EQ(d.rows, 32768u);
  EXPECT_EQ(d.columns, 1024u);
  EXPECT_EQ(d.page_bytes, 1024u);
  expect_ddr3_base_timing(d, 6, 30);
  EXPECT_DOUBLE_EQ(d.currents.idd0, 95);
  EXPECT_DOUBLE_EQ(d.currents.idd4r, 160);  // wider bursts than x4
  EXPECT_DOUBLE_EQ(d.currents.idd4w, 165);
  EXPECT_DOUBLE_EQ(d.currents.idd5b, 235);
}

TEST(DramSpecDdr3, X16MatchesLegacyConstants) {
  const DramSpec d = dram::micron_2gb(DeviceWidth::kX16);
  EXPECT_EQ(d.rows, 16384u);
  EXPECT_EQ(d.columns, 1024u);
  EXPECT_EQ(d.page_bytes, 2048u);
  expect_ddr3_base_timing(d, 8, 40);  // x16 has wider ACT windows
  EXPECT_DOUBLE_EQ(d.currents.idd0, 115);
  EXPECT_DOUBLE_EQ(d.currents.idd4r, 230);
  EXPECT_DOUBLE_EQ(d.currents.idd4w, 240);
  EXPECT_DOUBLE_EQ(d.currents.idd5b, 255);
}

TEST(DramSpecDdr3, DerivedEnergyMatchesLegacyValues) {
  // Spot-check the Micron TN-41-01 derivation against the values the DDR3
  // model has always produced (pinned numerically: these feed every EPI
  // figure, and the full-sweep CSVs are byte-compared in CI).
  const DramSpec x8 = dram::micron_2gb(DeviceWidth::kX8);
  EXPECT_DOUBLE_EQ(x8.energy.act_pj, 2782.5);
  EXPECT_DOUBLE_EQ(x8.energy.rd_burst_pj, 588.0);
  EXPECT_DOUBLE_EQ(x8.energy.wr_burst_pj, 618.0);
  EXPECT_DOUBLE_EQ(x8.energy.refresh_pj, 45600.0);
  const DramSpec x16 = dram::micron_2gb(DeviceWidth::kX16);
  EXPECT_DOUBLE_EQ(x16.energy.act_pj, 4252.5);
  EXPECT_DOUBLE_EQ(x16.energy.rd_burst_pj, 1008.0);
}

TEST(DramSpec, SpecForDispatchesToTheFactories) {
  for (DeviceWidth w :
       {DeviceWidth::kX4, DeviceWidth::kX8, DeviceWidth::kX16}) {
    EXPECT_EQ(dram::spec_for(Generation::kDdr3, w).generation,
              Generation::kDdr3);
    EXPECT_EQ(dram::spec_for(Generation::kDdr4, w).generation,
              Generation::kDdr4);
    EXPECT_EQ(dram::spec_for(Generation::kDdr5, w).generation,
              Generation::kDdr5);
    EXPECT_EQ(dram::spec_for(Generation::kDdr3, w).timing.tRCD,
              dram::micron_2gb(w).timing.tRCD);
  }
}

TEST(DramSpec, SchemeMemConfigDefaultsToDdr3) {
  const ecc::SchemeDesc lot = ecc::make_scheme(
      ecc::SchemeId::kLotEcc9, ecc::SystemScale::kQuadEquivalent);
  EXPECT_EQ(lot.mem_config().device.generation, Generation::kDdr3);
  EXPECT_EQ(lot.mem_config(Generation::kDdr5).device.generation,
            Generation::kDdr5);
  // The generation changes the device, never the rank/channel organization.
  EXPECT_EQ(lot.mem_config(Generation::kDdr5).chips_per_rank,
            lot.mem_config().chips_per_rank);
  EXPECT_EQ(lot.mem_config(Generation::kDdr5).channels,
            lot.mem_config().channels);
}

// ---------------------------------------------------------------------------
// Generation parsing (the ECCSIM_DRAM / --dram contract is tested in
// bench_flags_test).

TEST(DramSpec, GenerationNamesRoundTrip) {
  for (Generation g :
       {Generation::kDdr3, Generation::kDdr4, Generation::kDdr5}) {
    const auto parsed = dram::parse_generation(dram::to_string(g));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, g);
  }
  EXPECT_FALSE(dram::parse_generation("ddr6").has_value());
  EXPECT_FALSE(dram::parse_generation("DDR3").has_value());
  EXPECT_FALSE(dram::parse_generation("").has_value());
}

// ---------------------------------------------------------------------------
// Geometry helpers: bank groups and refresh sets.

TEST(DramSpecGeometry, Ddr4BankGroups) {
  const DramSpec d = dram::ddr4_8gb(DeviceWidth::kX8);
  EXPECT_EQ(d.banks, 16u);
  EXPECT_EQ(d.bank_groups, 4u);
  EXPECT_EQ(d.sub_channels, 1u);
  EXPECT_EQ(d.refresh, dram::RefreshPolicy::kAllBank);
  EXPECT_EQ(d.refresh_sets(), 1u);
  // Banks stripe round-robin across groups.
  EXPECT_EQ(d.bank_group_of(0), 0u);
  EXPECT_EQ(d.bank_group_of(1), 1u);
  EXPECT_EQ(d.bank_group_of(4), 0u);
  EXPECT_EQ(d.bank_group_of(15), 3u);
  EXPECT_GT(d.timing.tCCD_L, d.timing.tCCD_S);
  EXPECT_GT(d.timing.tRRD_L, d.timing.tRRD_S);
}

TEST(DramSpecGeometry, Ddr5RefreshSets) {
  const DramSpec d = dram::ddr5_16gb(DeviceWidth::kX8);
  EXPECT_EQ(d.banks, 32u);
  EXPECT_EQ(d.bank_groups, 8u);
  EXPECT_EQ(d.sub_channels, 2u);
  EXPECT_EQ(d.refresh, dram::RefreshPolicy::kSameBank);
  EXPECT_EQ(d.refresh_sets(), 4u);  // banks per group
  // REFsb set = in-group bank index: banks 0..7 are each group's bank 0.
  EXPECT_EQ(d.refresh_set_of_bank(0), 0u);
  EXPECT_EQ(d.refresh_set_of_bank(7), 0u);
  EXPECT_EQ(d.refresh_set_of_bank(8), 1u);
  EXPECT_EQ(d.refresh_set_of_bank(31), 3u);
  // The rotation walks the sets round-robin.
  EXPECT_EQ(d.refresh_set_of_ref(0), 0u);
  EXPECT_EQ(d.refresh_set_of_ref(5), 1u);
  ASSERT_TRUE(d.on_die_ecc.enabled);
  EXPECT_EQ(d.on_die_ecc.data_bits, 128u);
  EXPECT_EQ(d.on_die_ecc.check_bits, 8u);
  EXPECT_DOUBLE_EQ(d.on_die_ecc.bit_fault_coverage, 0.9);
}

// ---------------------------------------------------------------------------
// Generation-specific protocol rules, against the extended checker.

using dram::CmdKind;
using dram::DramCommand;

dram::ChannelConfig config_for(const DramSpec& device) {
  dram::ChannelConfig cc;
  cc.device = device;
  cc.ranks = 2;
  cc.banks = device.banks;
  cc.chips_per_rank = 9;
  cc.row_policy = dram::RowPolicy::kOpenPage;
  return cc;
}

DramCommand act(std::uint64_t cycle, std::uint32_t rank, std::uint32_t bank,
                std::uint64_t row) {
  DramCommand c;
  c.kind = CmdKind::kActivate;
  c.cycle = cycle;
  c.rank = rank;
  c.bank = bank;
  c.row = row;
  return c;
}

DramCommand cas(const dram::ChannelConfig& cc, bool is_write,
                std::uint64_t cycle, std::uint32_t rank, std::uint32_t bank,
                std::uint64_t row) {
  const auto& t = cc.device.timing;
  DramCommand c;
  c.kind = is_write ? CmdKind::kWrite : CmdKind::kRead;
  c.cycle = cycle;
  c.rank = rank;
  c.bank = bank;
  c.row = row;
  c.data_start = cycle + (is_write ? t.tCWL : t.tCL);
  c.data_end = c.data_start + t.tBurst;
  return c;
}

DramCommand refsb(std::uint64_t cycle, std::uint32_t rank,
                  std::uint32_t bank_set) {
  DramCommand c;
  c.kind = CmdKind::kRefresh;
  c.cycle = cycle;
  c.rank = rank;
  c.bank = bank_set;
  return c;
}

check::ProtocolChecker audit(const dram::ChannelConfig& cc,
                             const std::vector<DramCommand>& stream) {
  check::ProtocolChecker checker(cc, "spec-test",
                                 check::ProtocolChecker::Mode::kCount);
  for (const DramCommand& cmd : stream) checker.on_command(cmd);
  return checker;
}

void expect_violation(const dram::ChannelConfig& cc,
                      const std::vector<DramCommand>& stream,
                      const std::string& rule) {
  const check::ProtocolChecker checker = audit(cc, stream);
  ASSERT_GE(checker.violation_count(), 1u)
      << "expected a " << rule << " violation";
  EXPECT_EQ(checker.violations()[0].rule, rule) << checker.report();
}

TEST(Ddr4ProtocolRules, SameGroupActViolatesTrrdL) {
  const auto cc = config_for(dram::ddr4_8gb(DeviceWidth::kX8));
  const auto& t = cc.device.timing;
  // Banks 0 and 4 share bank group 0; a gap of tRRD_S is legal across
  // groups but one cycle short of the same-group constraint.
  ASSERT_LT(t.tRRD_S, t.tRRD_L);
  expect_violation(cc, {act(1000, 0, 0, 1), act(1000 + t.tRRD_L - 1, 0, 4, 1)},
                   "tRRD_L");
}

TEST(Ddr4ProtocolRules, CrossGroupActEscapesTrrdL) {
  const auto cc = config_for(dram::ddr4_8gb(DeviceWidth::kX8));
  const auto& t = cc.device.timing;
  // Banks 0 and 1 are in different groups: tRRD_S is the only gate.
  EXPECT_EQ(audit(cc, {act(1000, 0, 0, 1), act(1000 + t.tRRD_S, 0, 1, 1)})
                .violation_count(),
            0u);
  expect_violation(cc, {act(1000, 0, 0, 1), act(1000 + t.tRRD_S - 1, 0, 1, 1)},
                   "tRRD_S");
}

TEST(Ddr4ProtocolRules, SameGroupCasViolatesTccdL) {
  const auto cc = config_for(dram::ddr4_8gb(DeviceWidth::kX8));
  const auto& t = cc.device.timing;
  // A CAS gap of tCCD_S clears the channel-wide and bus constraints
  // (tCCD_S == tBurst for DDR4) but is inside the same-group tCCD_L.
  ASSERT_LT(t.tCCD_S, t.tCCD_L);
  ASSERT_GE(t.tCCD_S, t.tBurst);
  const std::uint64_t c1 = 1000 + t.tRCD + t.tRRD_L;
  expect_violation(cc,
                   {act(1000, 0, 0, 5), act(1000 + t.tRRD_L, 0, 4, 5),
                    cas(cc, false, c1, 0, 0, 5),
                    cas(cc, false, c1 + t.tCCD_S, 0, 4, 5)},
                   "tCCD_L");
}

TEST(Ddr4ProtocolRules, CrossGroupCasAtTccdSIsLegal) {
  const auto cc = config_for(dram::ddr4_8gb(DeviceWidth::kX8));
  const auto& t = cc.device.timing;
  const std::uint64_t c1 = 1000 + t.tRCD + t.tRRD_S;
  EXPECT_EQ(audit(cc, {act(1000, 0, 0, 5), act(1000 + t.tRRD_S, 0, 1, 5),
                       cas(cc, false, c1, 0, 0, 5),
                       cas(cc, false, c1 + t.tCCD_S, 0, 1, 5)})
                .violation_count(),
            0u);
}

TEST(Ddr4ProtocolRules, ChannelWideCasGateEnforcesTccdS) {
  // With the stock DDR4 part tCCD_S == tBurst, so a violating pair always
  // trips the bus-occupancy rule first; widen tCCD_S to isolate the
  // channel-wide CAS gate and prove it is enforced independently.
  auto cc = config_for(dram::ddr4_8gb(DeviceWidth::kX8));
  auto& t = cc.device.timing;
  t.tCCD_S = t.tBurst + 2;
  const std::uint64_t c1 = 1000 + t.tRCD + t.tRRD_S;
  expect_violation(cc,
                   {act(1000, 0, 0, 5), act(1000 + t.tRRD_S, 0, 1, 5),
                    cas(cc, false, c1, 0, 0, 5),
                    cas(cc, false, c1 + t.tCCD_S - 1, 0, 1, 5)},
                   "tCCD_S");
}

TEST(Ddr5ProtocolRules, RefsbRotationInOrderIsClean) {
  const auto cc = config_for(dram::ddr5_16gb(DeviceWidth::kX8));
  const auto& t = cc.device.timing;
  std::vector<DramCommand> stream;
  for (std::uint64_t i = 0; i < 8; ++i) {
    stream.push_back(refsb((i + 1) * t.tREFI, 0,
                           static_cast<std::uint32_t>(i % 4)));
  }
  EXPECT_EQ(audit(cc, stream).violation_count(), 0u)
      << audit(cc, stream).report();
}

TEST(Ddr5ProtocolRules, RefsbOutOfOrderViolatesRotation) {
  const auto cc = config_for(dram::ddr5_16gb(DeviceWidth::kX8));
  const auto& t = cc.device.timing;
  // Second REFsb must target set 1; set 2 skips a set.
  expect_violation(
      cc, {refsb(t.tREFI, 0, 0), refsb(2 * t.tREFI, 0, 2)}, "REFsb-rotation");
}

TEST(Ddr5ProtocolRules, RefsbSetOutOfRangeRejected) {
  const auto cc = config_for(dram::ddr5_16gb(DeviceWidth::kX8));
  const auto& t = cc.device.timing;
  const unsigned sets = cc.device.refresh_sets();
  expect_violation(cc, {refsb(t.tREFI, 0, sets)}, "address-range");
}

TEST(Ddr5ProtocolRules, RefsbBlackoutIsPerBankSet) {
  const auto cc = config_for(dram::ddr5_16gb(DeviceWidth::kX8));
  const auto& t = cc.device.timing;
  // Banks 0..7 are set 0 (blacked out by the first REFsb); bank 8 is set 1
  // and may activate inside the set-0 blackout.
  expect_violation(
      cc, {refsb(t.tREFI, 0, 0), act(t.tREFI + t.tRFC - 1, 0, 3, 1)}, "tRFC");
  EXPECT_EQ(
      audit(cc, {refsb(t.tREFI, 0, 0), act(t.tREFI + 1, 0, 8, 1)})
          .violation_count(),
      0u);
}

// ---------------------------------------------------------------------------
// On-die SECDED pre-correction filter (DDR5).

TEST(OnDieEccFilter, AttenuatesOnlyTheBitRate) {
  const auto base = faults::ddr3_vendor_average();
  const DramSpec d = dram::ddr5_16gb(DeviceWidth::kX8);
  const auto filtered =
      faults::on_die_ecc_filter(base, d.on_die_ecc.bit_fault_coverage);
  EXPECT_DOUBLE_EQ(filtered[faults::FaultType::kBit],
                   base[faults::FaultType::kBit] * 0.1);
  EXPECT_DOUBLE_EQ(filtered[faults::FaultType::kWord],
                   base[faults::FaultType::kWord]);
  EXPECT_DOUBLE_EQ(filtered[faults::FaultType::kColumn],
                   base[faults::FaultType::kColumn]);
  EXPECT_DOUBLE_EQ(filtered[faults::FaultType::kMultiRank],
                   base[faults::FaultType::kMultiRank]);
  // DDR3/DDR4 have no on-die ECC: coverage 0 is the identity.
  const auto untouched = faults::on_die_ecc_filter(base, 0.0);
  EXPECT_DOUBLE_EQ(untouched.total(), base.total());
}

// ---------------------------------------------------------------------------
// Sub-channel planes in the parity layout (DDR5): groups must never pair
// two sub-channels of the same DIMM.

dram::MemGeometry ddr5_geom() {
  dram::MemGeometry g;
  g.channels = 8;  // 4 physical channels x 2 sub-channels
  g.sub_channels = 2;
  g.ranks_per_channel = 2;
  g.banks_per_rank = 8;
  g.rows_per_bank = 16;
  g.line_bytes = 64;
  return g;
}

TEST(ParityLayoutPlanes, GroupsSpreadOverPhysicalChannels) {
  const auto geom = ddr5_geom();
  eccparity::ParityLayout layout(geom, 16);
  EXPECT_EQ(layout.channels(), 4u);  // N = physical channels, not effective
  EXPECT_EQ(layout.xor_coverage(), 4u * 3u);
  std::set<std::uint64_t> seen;
  for (std::uint64_t line = 0; line < geom.total_data_lines(); line += 11) {
    const eccparity::GroupId g = layout.group_of(line);
    if (!seen.insert(g.key()).second) continue;
    std::set<std::uint32_t> channels;
    for (const eccparity::Member& m : layout.members(g)) {
      EXPECT_LT(m.channel, geom.fd_channels());
      EXPECT_TRUE(channels.insert(m.channel).second)
          << "two members share physical channel " << m.channel;
    }
    const std::uint32_t pc = layout.parity_channel(g);
    EXPECT_LT(pc, geom.fd_channels());
    EXPECT_EQ(channels.count(pc), 0u)
        << "parity shares a physical channel with a member";
  }
}

TEST(ParityLayoutPlanes, ParityAddressStaysInTheGroupsPlane) {
  const auto geom = ddr5_geom();
  eccparity::ParityLayout layout(geom, 16);
  for (std::uint64_t line = 0; line < geom.total_data_lines(); line += 7) {
    const eccparity::GroupId g = layout.group_of(line);
    const dram::DramAddress a = layout.parity_line_address(g);
    // Effective channel = plane * fd + physical: the parity line lives in
    // the same sub-channel plane as every member.
    EXPECT_EQ(a.channel / geom.fd_channels(), g.plane);
    EXPECT_EQ(a.channel % geom.fd_channels(), layout.parity_channel(g));
  }
}

TEST(ParityLayoutPlanes, XorKeyRoundTripsToTheRightPlane) {
  const auto geom = ddr5_geom();
  eccparity::ParityLayout layout(geom, 16);
  for (std::uint64_t line = 0; line < geom.total_data_lines(); line += 13) {
    const eccparity::GroupId g = layout.group_of(line);
    if (g.leftover) continue;  // keys name primary groups
    const std::uint64_t key = layout.xor_cacheline_key(line);
    const eccparity::GroupId back = layout.group_for_xor_key(key);
    EXPECT_FALSE(back.leftover);
    EXPECT_EQ(back.plane, g.plane);
    EXPECT_EQ(back.index, g.index);
    EXPECT_EQ(back.slot / 4, g.slot / 4);  // one XOR line per 4-slot bucket
  }
}

TEST(ParityLayoutPlanes, SinglePlaneIsTheDdr3Construction) {
  // With sub_channels == 1 the plane machinery must be invisible.
  auto geom = ddr5_geom();
  geom.sub_channels = 1;
  geom.channels = 4;
  eccparity::ParityLayout layout(geom, 16);
  EXPECT_EQ(layout.channels(), 4u);
  for (std::uint64_t line = 0; line < geom.total_data_lines(); line += 17) {
    EXPECT_EQ(layout.group_of(line).plane, 0u);
  }
}

}  // namespace
}  // namespace eccsim
