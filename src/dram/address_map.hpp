// Address mapping: linear line index <-> (channel, rank, bank, row, col).
//
// Policy (Sec. IV-B of the paper): adjacent physical pages interleave
// across channels to balance bandwidth; within a channel the DRAMsim
// "High Performance" map places column bits lowest, then bank, then rank,
// then row, maximizing bank- and rank-level parallelism for streams --
// the right choice under the close-page row policy the paper uses.
#pragma once

#include <cstdint>

#include "dram/request.hpp"

namespace eccsim::dram {

/// Logical geometry of one memory system.  "Rows" here are the paper's 4KB
/// logical rows (physical pages, Fig. 4), independent of the per-device row
/// size; capacity accounting uses data chips only.
struct MemGeometry {
  /// Independently-scheduled channels: physical channels times the
  /// device's sub-channels (DDR5 contributes two per physical channel).
  std::uint32_t channels = 4;
  /// Sub-channels folded into `channels`; 1 for DDR3/DDR4.  The decode
  /// convention is plane-major: effective channel e serves physical
  /// channel e % fd_channels() on sub-channel plane e / fd_channels().
  std::uint32_t sub_channels = 1;
  std::uint32_t ranks_per_channel = 1;
  std::uint32_t banks_per_rank = 8;
  std::uint64_t rows_per_bank = 32768;  ///< logical 4KB rows holding data
  std::uint32_t line_bytes = 64;
  std::uint32_t page_bytes = 4096;

  /// Failure-domain (physical) channels: sub-channels of one physical
  /// channel share a DIMM, so cross-channel redundancy groups must spread
  /// over these, not over `channels`.
  std::uint32_t fd_channels() const { return channels / sub_channels; }

  std::uint32_t lines_per_row() const { return page_bytes / line_bytes; }
  std::uint64_t lines_per_bank() const {
    return rows_per_bank * lines_per_row();
  }
  std::uint64_t total_data_lines() const {
    return static_cast<std::uint64_t>(channels) * ranks_per_channel *
           banks_per_rank * lines_per_bank();
  }
  std::uint64_t total_data_bytes() const {
    return total_data_lines() * line_bytes;
  }
  std::uint64_t total_pages() const {
    return total_data_lines() / lines_per_row();
  }

  friend bool operator==(const MemGeometry&, const MemGeometry&) = default;
};

/// Bidirectional line-index <-> DramAddress mapping.
class AddressMap {
 public:
  explicit AddressMap(const MemGeometry& geom) : geom_(geom) {}

  const MemGeometry& geometry() const { return geom_; }

  /// Decodes a linear line index (0 .. total_data_lines-1).
  ///
  /// High-Performance close-page mapping: pages interleave across channels
  /// (Sec. IV-B); *within* a channel, consecutive lines interleave across
  /// banks, then ranks, so streams exploit full bank/rank parallelism
  /// instead of hammering one bank through its tRC recovery.
  DramAddress decode(std::uint64_t line_index) const {
    const std::uint32_t lpr = geom_.lines_per_row();
    DramAddress a;
    const std::uint32_t slot = static_cast<std::uint32_t>(line_index % lpr);
    const std::uint64_t page = line_index / lpr;
    a.channel = static_cast<std::uint32_t>(page % geom_.channels);
    const std::uint64_t cpage = page / geom_.channels;
    const std::uint64_t x = cpage * lpr + slot;  // within-channel line id
    a.bank = static_cast<std::uint32_t>(x % geom_.banks_per_rank);
    const std::uint64_t r = x / geom_.banks_per_rank;
    a.rank = static_cast<std::uint32_t>(r % geom_.ranks_per_channel);
    const std::uint64_t in_bank = r / geom_.ranks_per_channel;
    a.row = in_bank / lpr;
    a.col = static_cast<std::uint32_t>(in_bank % lpr);
    return a;
  }

  /// Re-encodes an address back to its linear line index (inverse of
  /// decode for in-range addresses).
  std::uint64_t encode(const DramAddress& a) const {
    const std::uint32_t lpr = geom_.lines_per_row();
    const std::uint64_t in_bank = a.row * lpr + a.col;
    const std::uint64_t r =
        in_bank * geom_.ranks_per_channel + a.rank;
    const std::uint64_t x = r * geom_.banks_per_rank + a.bank;
    const std::uint64_t cpage = x / lpr;
    const std::uint32_t slot = static_cast<std::uint32_t>(x % lpr);
    const std::uint64_t page = cpage * geom_.channels + a.channel;
    return page * lpr + slot;
  }

 private:
  MemGeometry geom_;
};

}  // namespace eccsim::dram
