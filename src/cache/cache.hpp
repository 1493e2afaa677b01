// Shared last-level cache model.
//
// An 8MB, 16-way, 64B-line write-back LLC (Table I of the paper) with LRU
// replacement.  Three kinds of lines coexist (Sec. III-D / IV-C):
//
//   - data lines (ordinary cached memory),
//   - ECC lines: cached copies of ECC-correction / tier-2 lines (VECC-style
//     caching used by LOT-ECC, Multi-ECC, and faulty-bank ECC lines),
//   - XOR lines: the compacted parity-update lines of Multi-ECC / ECC
//     Parity; an XOR cacheline carries the accumulated XOR of old and new
//     correction bits of all dirty data lines covered by one ECC parity
//     line and takes on that parity line's physical address.
//
// Per the paper's methodology, ECC-related cachelines are treated exactly
// like data lines for insertion and replacement.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>

#include "stats/stats.hpp"

namespace eccsim::cache {

/// What a cached line holds; determines the eviction cost charged by the
/// ECC traffic model (data: 1 write; ECC: 1 write; XOR: 1 read + 1 write).
enum class LineKind : std::uint8_t { kData = 0, kEcc, kXor };

/// Result of a cache access.
struct AccessResult {
  bool hit = false;
  /// A valid dirty victim was evicted and must be written back.
  bool writeback = false;
  std::uint64_t victim_addr = 0;
  LineKind victim_kind = LineKind::kData;
};

/// Configuration (defaults = the paper's LLC, Table I).
struct CacheConfig {
  std::uint64_t size_bytes = 8ULL * 1024 * 1024;
  std::uint32_t line_bytes = 64;
  std::uint32_t ways = 16;
};

/// Set-associative write-back, write-allocate cache with true-LRU
/// replacement.  Addresses are line addresses (already divided by the line
/// size); callers namespace data/ECC/XOR addresses so they never collide.
///
/// Layout: one 64-byte-aligned block per set, so a lookup touches only its
/// own set's host cache lines.  A block holds `ways` 64-bit tags, `ways`
/// 16-bit LRU ticks, the set's 16-bit clock and `ways` packed kind/dirty
/// bytes, padded to a multiple of 64 bytes (a 16-way block is 192 B,
/// three host lines).  Tick 0 marks an empty way.  Every access, and every
/// fill that inserts, stamps its way with the set's next clock value, so
/// within a set the valid ways' ticks are unique and ordered by last use,
/// and the victim is the argmin of the set's ticks (first way on ties): the
/// first empty way if there is one, else the least-recently used line.
/// When the clock saturates, the set is renormalized: its k valid ways get
/// ticks 1..k in LRU order and empty ways stay 0, which keeps every future
/// victim choice unchanged.
class Cache {
 public:
  explicit Cache(const CacheConfig& cfg);
  /// Copies the whole cache: contents, clocks and counters.
  Cache(const Cache& other);
  Cache(Cache&&) noexcept = default;

  /// Looks up `line_addr`; on miss, allocates it (evicting LRU) and reports
  /// any dirty victim.  `is_write` marks the line dirty on hit or fill.
  AccessResult access(std::uint64_t line_addr, bool is_write,
                      LineKind kind = LineKind::kData);

  /// Inserts a line without an explicit demand access (used to model the
  /// second 64B half of a 128B memory line arriving with its sibling).
  /// No-op if already present.
  AccessResult fill(std::uint64_t line_addr, LineKind kind = LineKind::kData);

  /// True if the line is present (no LRU update, no allocation).
  bool contains(std::uint64_t line_addr) const;

  /// Asks the host to fetch `line_addr`'s set block into its caches ahead
  /// of an access.  A hint only: no cache state or counter changes.
  void prefetch(std::uint64_t line_addr) const;

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t writebacks = 0;
    double hit_rate() const {
      const auto total = hits + misses;
      return total ? static_cast<double>(hits) / static_cast<double>(total)
                   : 0.0;
    }
    friend bool operator==(const Stats&, const Stats&) = default;
  };
  const Stats& stats() const { return stats_; }
  /// Clears hit/miss/writeback counters (end of a warmup phase); cache
  /// contents are untouched.
  void reset_stats() { stats_ = Stats{}; }

  std::uint32_t sets() const { return num_sets_; }
  std::uint32_t ways() const { return cfg_.ways; }

  /// Equal geometry, counters, and set blocks byte for byte (tags, ticks,
  /// clocks, kinds and dirty bits).
  friend bool operator==(const Cache& a, const Cache& b);

  /// Registers polled gauges over this cache's counters under `prefix`
  /// (e.g. "llc"): hits, misses, writebacks, hit_rate.  Observation only;
  /// the access hot path is untouched.  `reg` must outlive the cache's use.
  void attach_stats(stats::Registry& reg, const std::string& prefix);

 private:
  static constexpr std::uint32_t kNoWay = ~std::uint32_t{0};
  /// renormalize() ranks a set's ways in a scratch array of this size.
  static constexpr std::uint32_t kMaxWays = 64;

  /// Returns set-block storage to calloc's heap.
  struct FreeStorage {
    void operator()(std::byte* p) const { std::free(p); }
  };

  /// The arrays of one set block.
  struct Set {
    std::uint64_t* tag;
    std::uint16_t* lru;  ///< 0 = empty way
    std::uint16_t* clock;
    std::uint8_t* meta;  ///< LineKind | kDirty
  };
  static constexpr std::uint8_t kDirty = 0x80;

  /// Points blocks_ at zeroed storage for num_sets_ blocks of
  /// block_bytes_, starting on a host cache-line boundary.
  void allocate_blocks();
  /// Byte offset of the set block `line_addr` maps to.
  std::size_t block_offset(std::uint64_t line_addr) const;
  Set set_of(std::uint64_t line_addr);
  /// Way holding `line_addr` in the set with tags `tag` and ticks `lru`,
  /// or kNoWay.
  std::uint32_t find(const std::uint64_t* tag, const std::uint16_t* lru,
                     std::uint64_t line_addr) const;
  /// Marks way `w` of `s` most recently used.
  void stamp(const Set& s, std::uint32_t w);
  /// Rewrites a saturated set's ticks and clock to the smallest values
  /// with the same order (see the class comment).
  void renormalize(const Set& s);
  /// Evicts the victim of `s` and installs `line_addr` there, reporting a
  /// dirty victim as a writeback.
  AccessResult replace(const Set& s, std::uint64_t line_addr, LineKind kind,
                       bool dirty);

  CacheConfig cfg_;
  std::uint32_t num_sets_;
  std::size_t block_bytes_;
  /// Raw storage from calloc, whose fresh pages need no zeroing pass: a
  /// cache built on them is faulted in by its first accesses.  The tag,
  /// tick and kind/dirty arrays inside are accessed through their own
  /// types.
  std::unique_ptr<std::byte[], FreeStorage> storage_;
  std::byte* blocks_ = nullptr;  ///< first host-line boundary in storage_
  Stats stats_;
};

}  // namespace eccsim::cache
