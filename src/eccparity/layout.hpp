// ECC parity construction and layout (Sec. III-A, Figs. 3-4).
//
// Terminology: with page interleaving, the pages at within-channel page
// index p ("stripe" p) of all N channels -- physical pages p*N .. p*N+N-1 --
// occupy the *same relative location* (rank, bank, row) in their respective
// channels.  An ECC parity is the bitwise XOR of the ECC correction bits of
// N-1 lines in N-1 distinct channels, stored in the remaining channel's
// reserved rows, so that any single-channel fault destroys at most one
// covered line (or the parity itself, which is then recomputable from the
// members).
//
// Grouping: for stripe p and line slot s, the *primary group* covers the
// lines at (channel c, stripe p, slot s) for every channel c except the
// parity channel c_par(p) = p mod N.  The line in the parity channel itself
// is the stripe's *leftover*; leftovers of N-1 consecutive stripes lie in
// N-1 distinct channels (consecutive integers mod N are distinct) and form
// a *leftover group*, whose parity lives in the one channel missing from
// the block.  Every data line therefore belongs to exactly one group, all
// group members and their parity sit in pairwise-distinct channels, and
// total parity storage is 1/(N-1) of the correction bits -- the paper's
// R/(N-1) capacity result.  (The paper's Fig. 4 rotates at row granularity;
// the stripe/leftover rotation used here preserves every invariant the
// mechanism relies on and admits an O(1) bidirectional mapping.)
//
// Sub-channels (DDR5): the failure domain is the *physical* channel, and
// both sub-channels of one physical channel share a DIMM, so parity groups
// must spread over N = fd_channels() physical channels -- never pair two
// sub-channels of the same DIMM.  The layout therefore works per
// sub-channel *plane*: effective channel e carries plane e / N of physical
// channel e % N, and each plane independently runs the N-channel rotation
// above.  With one sub-channel (DDR3/DDR4) there is a single plane and the
// construction is unchanged.
#pragma once

#include <cstdint>
#include <vector>

#include "dram/address_map.hpp"
#include "dram/request.hpp"

namespace eccsim::eccparity {

/// Identifies one parity group (one parity unit of correction-bit size).
struct GroupId {
  bool leftover = false;    ///< primary (stripe) or leftover group
  std::uint64_t index = 0;  ///< stripe p (primary) or block g (leftover)
  std::uint32_t slot = 0;   ///< line slot within the 4KB row
  std::uint32_t plane = 0;  ///< sub-channel plane (0 for DDR3/DDR4)

  friend bool operator==(const GroupId&, const GroupId&) = default;

  /// Packs into a single key for hashing / map storage.
  std::uint64_t key() const {
    return (static_cast<std::uint64_t>(leftover) << 63) |
           (static_cast<std::uint64_t>(plane) << 56) | (index << 8) | slot;
  }
};

/// One group member, identified by its linear data-line index.  `channel`
/// is the physical (failure-domain) channel.
struct Member {
  std::uint32_t channel = 0;
  std::uint64_t line_index = 0;
};

/// Parity construction / layout math for one memory system.
class ParityLayout {
 public:
  /// `corr_bytes` is the size of one line's ECC correction bits (R * line).
  ParityLayout(const dram::MemGeometry& geom, unsigned corr_bytes);

  const dram::MemGeometry& geometry() const { return geom_; }
  /// Physical channels: the N of the parity construction (groups never
  /// span two sub-channels of one DIMM).
  unsigned channels() const { return geom_.fd_channels(); }
  unsigned corr_bytes() const { return corr_bytes_; }

  /// The group a data line belongs to.
  GroupId group_of(std::uint64_t line_index) const;

  /// All members of a group (N-1 lines in distinct channels, fewer only in
  /// the final partial leftover block).
  std::vector<Member> members(const GroupId& id) const;

  /// The physical channel holding the group's parity (distinct from every
  /// member's).
  std::uint32_t parity_channel(const GroupId& id) const;

  /// Physical address of the parity line holding this group's parity,
  /// inside the reserved rows of the parity channel (Fig. 4 layout: the
  /// last rows of each bank, same bank number as the covered data).
  dram::DramAddress parity_line_address(const GroupId& id) const;

  /// The XOR-cacheline key for a data line (Sec. IV-C): one XOR line covers
  /// the same four adjacent slots across the stripe's group, i.e.
  /// 4*(N-1) data lines.  Keys are namespaced to never collide with data
  /// line indices.
  std::uint64_t xor_cacheline_key(std::uint64_t line_index) const;

  /// Inverts xor_cacheline_key: the primary group whose parity line backs
  /// the XOR cacheline.  (Leftover lines share the bucket's parity address
  /// in the traffic model; the functional manager keeps them exact.)
  GroupId group_for_xor_key(std::uint64_t key) const;

  /// Number of data lines covered by one XOR cacheline.
  std::uint32_t xor_coverage() const { return 4 * (geom_.fd_channels() - 1); }

  /// Rows per bank reserved for parity lines:
  /// ceil(data_rows * (1+12.5%) * R / (N-1)) (Sec. III-E).
  std::uint64_t reserved_rows_per_bank() const { return reserved_rows_; }

  /// Pages that share parity groups with the page containing `line_index`
  /// (the OS must retire these together with the faulty page, Sec. III-C).
  std::vector<std::uint64_t> co_retired_pages(std::uint64_t line_index) const;

 private:
  struct Loc {
    std::uint32_t channel;  ///< physical channel
    std::uint32_t plane;    ///< sub-channel plane
    std::uint64_t stripe;   ///< within-channel page index (cpage)
    std::uint32_t slot;
  };
  Loc locate(std::uint64_t line_index) const;
  std::uint64_t line_of(std::uint32_t channel, std::uint32_t plane,
                        std::uint64_t stripe, std::uint32_t slot) const;

  dram::MemGeometry geom_;
  dram::AddressMap map_;
  dram::ExactDivider fd_channels_;  ///< splits an effective channel
  unsigned corr_bytes_;
  std::uint64_t stripes_;        ///< within-channel pages
  std::uint64_t reserved_rows_;
};

}  // namespace eccsim::eccparity
