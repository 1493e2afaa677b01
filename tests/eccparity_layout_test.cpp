// Tests for the ECC parity grouping and layout invariants (Sec. III-A).
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "dram/spec.hpp"
#include "ecc/scheme.hpp"
#include "eccparity/layout.hpp"

namespace eccsim::eccparity {
namespace {

dram::MemGeometry small_geom(std::uint32_t channels) {
  dram::MemGeometry g;
  g.channels = channels;
  g.ranks_per_channel = 2;
  g.banks_per_rank = 8;
  g.rows_per_bank = 16;   // tiny so exhaustive sweeps are cheap
  g.line_bytes = 64;
  return g;
}

class LayoutParamTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(LayoutParamTest, EveryLineBelongsToExactlyOneGroup) {
  const auto geom = small_geom(GetParam());
  ParityLayout layout(geom, 16);
  // Partition by group_of, then check members() reproduces exactly the
  // same partition: every line appears in precisely the member list of its
  // own group.
  std::map<std::uint64_t, std::set<std::uint64_t>> by_group;
  for (std::uint64_t line = 0; line < geom.total_data_lines(); ++line) {
    by_group[layout.group_of(line).key()].insert(line);
  }
  std::uint64_t covered = 0;
  for (std::uint64_t line = 0; line < geom.total_data_lines(); ++line) {
    const GroupId g = layout.group_of(line);
    const auto members = layout.members(g);
    std::set<std::uint64_t> member_set;
    for (const Member& m : members) member_set.insert(m.line_index);
    EXPECT_EQ(member_set, by_group[g.key()])
        << "members() disagrees with group_of() for line " << line;
    ++covered;
  }
  EXPECT_EQ(covered, geom.total_data_lines());
}

TEST_P(LayoutParamTest, MembersOccupyDistinctChannels) {
  const auto geom = small_geom(GetParam());
  ParityLayout layout(geom, 16);
  std::set<std::uint64_t> seen_groups;
  for (std::uint64_t line = 0; line < geom.total_data_lines(); line += 7) {
    const GroupId g = layout.group_of(line);
    if (!seen_groups.insert(g.key()).second) continue;
    std::set<std::uint32_t> channels;
    for (const Member& m : layout.members(g)) {
      EXPECT_TRUE(channels.insert(m.channel).second)
          << "two members share channel " << m.channel;
    }
  }
}

TEST_P(LayoutParamTest, ParityChannelDistinctFromAllMembers) {
  const auto geom = small_geom(GetParam());
  ParityLayout layout(geom, 16);
  std::set<std::uint64_t> seen_groups;
  for (std::uint64_t line = 0; line < geom.total_data_lines(); line += 5) {
    const GroupId g = layout.group_of(line);
    if (!seen_groups.insert(g.key()).second) continue;
    const std::uint32_t pc = layout.parity_channel(g);
    for (const Member& m : layout.members(g)) {
      EXPECT_NE(m.channel, pc) << "parity shares a channel with a member";
    }
  }
}

TEST_P(LayoutParamTest, FullGroupsHaveNMinus1Members) {
  const auto geom = small_geom(GetParam());
  const std::uint32_t n = GetParam();
  ParityLayout layout(geom, 16);
  // Primary groups always have N-1 members; leftover groups have N-1
  // except possibly the final partial block.
  std::uint64_t full = 0, partial = 0;
  std::set<std::uint64_t> seen;
  for (std::uint64_t line = 0; line < geom.total_data_lines(); ++line) {
    const GroupId g = layout.group_of(line);
    if (!seen.insert(g.key()).second) continue;
    const auto m = layout.members(g);
    if (m.size() == n - 1) ++full;
    else ++partial;
    if (!g.leftover) {
      EXPECT_EQ(m.size(), n - 1u);
    }
  }
  EXPECT_GT(full, 0u);
  // Partial groups only at the tail: at most one block's worth of slots.
  EXPECT_LE(partial, geom.lines_per_row());
}

TEST_P(LayoutParamTest, ParityLineAddressInReservedRows) {
  const auto geom = small_geom(GetParam());
  ParityLayout layout(geom, 16);
  for (std::uint64_t line = 0; line < geom.total_data_lines(); line += 11) {
    const GroupId g = layout.group_of(line);
    const dram::DramAddress a = layout.parity_line_address(g);
    EXPECT_LT(a.channel, geom.channels);
    EXPECT_EQ(a.channel, layout.parity_channel(g));
    EXPECT_GE(a.row, geom.rows_per_bank - layout.reserved_rows_per_bank());
    EXPECT_LT(a.row, geom.rows_per_bank);
  }
}

TEST_P(LayoutParamTest, XorCachelineCoversFourSlots) {
  const auto geom = small_geom(GetParam());
  ParityLayout layout(geom, 16);
  // Lines in the same stripe whose slots fall in the same 4-aligned bucket
  // share one XOR cacheline key; different buckets differ.
  const std::uint64_t l0 = 0;  // stripe 0, slot 0
  EXPECT_EQ(layout.xor_cacheline_key(l0), layout.xor_cacheline_key(l0 + 3));
  EXPECT_NE(layout.xor_cacheline_key(l0), layout.xor_cacheline_key(l0 + 4));
  EXPECT_EQ(layout.xor_coverage(), 4 * (GetParam() - 1));
}

TEST_P(LayoutParamTest, XorKeysDisjointFromLineIndices) {
  const auto geom = small_geom(GetParam());
  ParityLayout layout(geom, 16);
  for (std::uint64_t line = 0; line < geom.total_data_lines(); line += 13) {
    EXPECT_GE(layout.xor_cacheline_key(line), 1ULL << 62);
  }
}

INSTANTIATE_TEST_SUITE_P(ChannelCounts, LayoutParamTest,
                         ::testing::Values(2u, 4u, 5u, 8u, 10u),
                         [](const ::testing::TestParamInfo<std::uint32_t>& i) {
                           std::string name = "N";
                           name += std::to_string(i.param);
                           return name;
                         });

TEST(ParityLayout, ReservedRowsMatchOverheadFormula) {
  // R = 16/64 = 0.25, N = 8: reserved fraction = 1.125 * 0.25 / 7 = 4.02%.
  dram::MemGeometry g = small_geom(8);
  g.rows_per_bank = 10000;
  ParityLayout layout(g, 16);
  const double frac = static_cast<double>(layout.reserved_rows_per_bank()) /
                      static_cast<double>(g.rows_per_bank);
  EXPECT_NEAR(frac, 1.125 * 0.25 / 7.0, 0.001);
}

TEST(ParityLayout, CoRetiredPagesIncludeStripe) {
  const auto geom = small_geom(4);
  ParityLayout layout(geom, 16);
  // Line in stripe 5, channel 2 (page 5*4+2 = 22).
  const std::uint64_t line = 22 * geom.lines_per_row() + 3;
  const auto pages = layout.co_retired_pages(line);
  // All four pages of stripe 5 must be present.
  for (std::uint64_t p = 20; p < 24; ++p) {
    EXPECT_NE(std::find(pages.begin(), pages.end(), p), pages.end())
        << "page " << p;
  }
}

TEST(ParityLayout, RejectsBadConfig) {
  dram::MemGeometry g = small_geom(1);
  EXPECT_THROW(ParityLayout(g, 16), std::invalid_argument);
  EXPECT_THROW(ParityLayout(small_geom(4), 0), std::invalid_argument);
  EXPECT_THROW(ParityLayout(small_geom(4), 65), std::invalid_argument);
}


// AddressMap::decode uses shifts, masks and a reciprocal; it must equal
// the plain division formula, kept here as the reference, on every Table
// II geometry at every DRAM generation.  ParityLayout locates a line
// through the same split, so its group and XOR-line key must agree too.
dram::DramAddress division_decode(const dram::MemGeometry& g,
                                  std::uint64_t line) {
  const std::uint64_t lpr = g.lines_per_row();
  dram::DramAddress a;
  const std::uint64_t page = line / lpr;
  a.channel = static_cast<std::uint32_t>(page % g.channels);
  const std::uint64_t x = page / g.channels * lpr + line % lpr;
  a.bank = static_cast<std::uint32_t>(x % g.banks_per_rank);
  const std::uint64_t r = x / g.banks_per_rank;
  a.rank = static_cast<std::uint32_t>(r % g.ranks_per_channel);
  const std::uint64_t in_bank = r / g.ranks_per_channel;
  a.row = in_bank / lpr;
  a.col = static_cast<std::uint32_t>(in_bank % lpr);
  return a;
}

/// First and last line, both pages around the first and last 64 channel
/// wraps and around every wrap at a prime stride, and a prime-stride
/// sample of all lines.
std::vector<std::uint64_t> decode_probe_lines(const dram::MemGeometry& g) {
  const std::uint64_t lpr = g.lines_per_row();
  const std::uint64_t total = g.total_data_lines();
  const std::uint64_t wraps = g.total_pages() / g.channels;
  std::vector<std::uint64_t> lines = {0, total - 1};
  auto around_wrap = [&](std::uint64_t k) {
    const std::uint64_t first = k * g.channels * lpr;  // page k*C, line 0
    for (std::uint64_t l = first - lpr; l < first + lpr; ++l) {
      if (l < total) lines.push_back(l);
    }
  };
  for (std::uint64_t k = 1; k < wraps; ++k) {
    if (k <= 64 || k + 64 >= wraps || k % 7919 == 0) around_wrap(k);
  }
  for (std::uint64_t l = 0; l < total; l += 104'729) lines.push_back(l);
  return lines;
}

TEST(AddressMap, DecodeMatchesDivisionOnEveryTableIIGeometry) {
  int geometries = 0;
  for (const ecc::SchemeId id : ecc::all_schemes()) {
    for (const ecc::SystemScale scale :
         {ecc::SystemScale::kDualEquivalent,
          ecc::SystemScale::kQuadEquivalent}) {
      for (const dram::Generation gen :
           {dram::Generation::kDdr3, dram::Generation::kDdr4,
            dram::Generation::kDdr5}) {
        const dram::MemGeometry g =
            ecc::make_scheme(id, scale).mem_config(gen).geometry();
        std::string where = ecc::to_string(id);
        where += ' ';
        where += dram::to_string(gen);
        where += ", ";
        where += std::to_string(g.channels);
        where += " channels";
        SCOPED_TRACE(where);
        const dram::AddressMap map(g);
        const std::uint32_t n = g.fd_channels();
        std::optional<ParityLayout> layout;
        if (n >= 2) layout.emplace(g, 16);
        const std::uint64_t lpr = g.lines_per_row();
        for (const std::uint64_t line : decode_probe_lines(g)) {
          const dram::DramAddress a = map.decode(line);
          ASSERT_EQ(a, division_decode(g, line)) << "line " << line;
          ASSERT_EQ(map.encode(a), line);
          if (!layout) continue;
          const std::uint64_t page = line / lpr;
          const auto eff = static_cast<std::uint32_t>(page % g.channels);
          const std::uint32_t channel = eff % n;
          const std::uint32_t plane = eff / n;
          const std::uint64_t stripe = page / g.channels;
          const auto slot = static_cast<std::uint32_t>(line % lpr);
          const GroupId grp = layout->group_of(line);
          ASSERT_EQ(grp.slot, slot);
          ASSERT_EQ(grp.plane, plane);
          ASSERT_EQ(grp.leftover, channel == stripe % n);
          ASSERT_EQ(grp.index, grp.leftover ? stripe / (n - 1) : stripe);
          ASSERT_EQ(layout->xor_cacheline_key(line),
                    (1ULL << 62) |
                        ((stripe * g.sub_channels + plane) * (lpr / 4) +
                         slot / 4));
        }
        ++geometries;
      }
    }
  }
  EXPECT_EQ(geometries, 48);
}

}  // namespace
}  // namespace eccsim::eccparity
