// Address mapping: linear line index <-> (channel, rank, bank, row, col).
//
// Policy (Sec. IV-B of the paper): adjacent physical pages interleave
// across channels to balance bandwidth; within a channel the DRAMsim
// "High Performance" map places column bits lowest, then bank, then rank,
// then row, maximizing bank- and rank-level parallelism for streams --
// the right choice under the close-page row policy the paper uses.
#pragma once

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>

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

/// Exact unsigned 64-bit division by a divisor fixed at construction,
/// without a divide instruction: one multiply-high by a precomputed
/// reciprocal and two shifts (Granlund & Montgomery, PLDI 1994, Fig. 4.1).
/// Exact for every 64-bit dividend and every divisor >= 1; a power of two
/// costs the same as any other divisor.
class ExactDivider {
 public:
  explicit ExactDivider(std::uint64_t d) {
    if (d == 0) throw std::invalid_argument("ExactDivider: divisor 0");
    const unsigned l = d == 1 ? 0 : 64 - static_cast<unsigned>(
                                             std::countl_zero(d - 1));
    // m = floor(2^64 * (2^l - d) / d) + 1 < 2^64, since 2^l - d < d.
    const unsigned __int128 excess =
        (static_cast<unsigned __int128>(1) << l) - d;
    m_ = static_cast<std::uint64_t>((excess << 64) / d) + 1;
    shift1_ = l == 0 ? 0 : 1;
    shift2_ = l == 0 ? 0 : l - 1;
  }

  std::uint64_t quotient(std::uint64_t n) const {
    const auto t = static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(m_) * n) >> 64);
    return (t + ((n - t) >> shift1_)) >> shift2_;
  }

 private:
  std::uint64_t m_;
  unsigned shift1_;
  unsigned shift2_;
};

/// Bidirectional line-index <-> DramAddress mapping.
class AddressMap {
 public:
  /// Throws std::invalid_argument unless lines per row, banks per rank and
  /// ranks per channel are powers of two (every Table II geometry at
  /// DDR3/4/5 is) and there is at least one channel: decode is then
  /// shifts, masks and one reciprocal multiply for the channel split.
  explicit AddressMap(const MemGeometry& geom)
      : geom_(geom),
        channels_(geom.channels),
        lpr_shift_(log2_exact(geom.lines_per_row(), "lines per row")),
        bank_shift_(log2_exact(geom.banks_per_rank, "banks per rank")),
        rank_shift_(log2_exact(geom.ranks_per_channel, "ranks per channel")) {}

  const MemGeometry& geometry() const { return geom_; }

  /// A line's place in the page interleave: its slot within the 4KB page,
  /// its (effective) channel, and its within-channel page index.  decode()
  /// and ParityLayout share this one split.
  struct PageSplit {
    std::uint32_t slot;
    std::uint32_t channel;
    std::uint64_t cpage;
  };

  PageSplit split(std::uint64_t line_index) const {
    const std::uint64_t page = line_index >> lpr_shift_;
    const std::uint64_t cpage = channels_.quotient(page);
    return PageSplit{
        static_cast<std::uint32_t>(line_index & mask(lpr_shift_)),
        static_cast<std::uint32_t>(page - cpage * geom_.channels), cpage};
  }

  /// Decodes a linear line index (0 .. total_data_lines-1).
  ///
  /// High-Performance close-page mapping: pages interleave across channels
  /// (Sec. IV-B); *within* a channel, consecutive lines interleave across
  /// banks, then ranks, so streams exploit full bank/rank parallelism
  /// instead of hammering one bank through its tRC recovery.
  DramAddress decode(std::uint64_t line_index) const {
    const PageSplit s = split(line_index);
    DramAddress a;
    a.channel = s.channel;
    // within-channel line id: cpage * lines_per_row + slot
    const std::uint64_t x = (s.cpage << lpr_shift_) | s.slot;
    a.bank = static_cast<std::uint32_t>(x & mask(bank_shift_));
    const std::uint64_t r = x >> bank_shift_;
    a.rank = static_cast<std::uint32_t>(r & mask(rank_shift_));
    const std::uint64_t in_bank = r >> rank_shift_;
    a.row = in_bank >> lpr_shift_;
    a.col = static_cast<std::uint32_t>(in_bank & mask(lpr_shift_));
    return a;
  }

  /// Re-encodes an address back to its linear line index (inverse of
  /// decode for in-range addresses).
  std::uint64_t encode(const DramAddress& a) const {
    const std::uint64_t in_bank = (a.row << lpr_shift_) + a.col;
    const std::uint64_t r = (in_bank << rank_shift_) + a.rank;
    const std::uint64_t x = (r << bank_shift_) + a.bank;
    const std::uint64_t cpage = x >> lpr_shift_;
    const std::uint64_t slot = x & mask(lpr_shift_);
    const std::uint64_t page = cpage * geom_.channels + a.channel;
    return (page << lpr_shift_) + slot;
  }

 private:
  static unsigned log2_exact(std::uint64_t v, const char* what) {
    if (!std::has_single_bit(v)) {
      throw std::invalid_argument(std::string("AddressMap: ") + what +
                                  " must be a power of two, not " +
                                  std::to_string(v));
    }
    return static_cast<unsigned>(std::countr_zero(v));
  }
  static std::uint64_t mask(unsigned shift) { return (1ULL << shift) - 1; }

  MemGeometry geom_;
  ExactDivider channels_;
  unsigned lpr_shift_;
  unsigned bank_shift_;
  unsigned rank_shift_;
};

}  // namespace eccsim::dram
