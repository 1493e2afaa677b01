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
/// replacement and at most 16 ways.  Addresses are line addresses
/// (already divided by the line size); callers namespace data/ECC/XOR
/// addresses so they never collide.
///
/// Layout: one 64-byte-aligned block per set, so a lookup touches only its
/// own set's host cache lines.  A block holds 16 fingerprint bytes, the
/// set's 64-bit recency word, `ways` packed kind/dirty bytes and `ways`
/// 64-bit tags, padded to a multiple of 64 bytes (a 16-way block is 192 B,
/// three host lines).
///
///   - A way's fingerprint is the top byte of the hash that picks the set,
///     with bit 7 forced on; 0 marks an empty way.  A lookup compares all
///     16 fingerprints at once and reads only the matching ways' tags.
///   - Nibble i of the recency word names the way at recency rank i, least
///     recent first.  The victim is the low nibble; a touched way's nibble
///     moves to the top.  A fresh set is in way order (way 0 lowest), so
///     empty ways always sit at the least-recent end in index order, and
///     the victim is the first empty way if there is one, else the least
///     recently used line.  The word is stored XOR that identity order, so
///     zeroed storage is a set of empty ways.
class Cache {
 public:
  explicit Cache(const CacheConfig& cfg);
  /// Copies the whole cache: contents, recency order and counters.
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

  /// Equal geometry, counters, and set blocks byte for byte (fingerprints,
  /// recency words, kinds, dirty bits and tags).
  friend bool operator==(const Cache& a, const Cache& b);

  /// Registers polled gauges over this cache's counters under `prefix`
  /// (e.g. "llc"): hits, misses, writebacks, hit_rate.  Observation only;
  /// the access hot path is untouched.  `reg` must outlive the cache's use.
  void attach_stats(stats::Registry& reg, const std::string& prefix);

 private:
  static constexpr std::uint32_t kNoWay = ~std::uint32_t{0};
  /// Ways a recency word can rank, one nibble each.
  static constexpr std::uint32_t kMaxWays = 16;

  /// Returns set-block storage to calloc's heap.
  struct FreeStorage {
    void operator()(std::byte* p) const { std::free(p); }
  };

  /// One set block and the fingerprint `line_addr` has in it.
  struct Set {
    std::uint8_t* fp;      ///< [kMaxWays]; 0 = empty way
    std::uint64_t* order;  ///< recency word XOR identity_
    std::uint8_t* meta;    ///< [ways] LineKind | kDirty
    std::uint64_t* tag;    ///< [ways]
    std::uint8_t key;      ///< `line_addr`'s fingerprint
  };
  static constexpr std::uint8_t kDirty = 0x80;

  /// Points blocks_ at zeroed storage for num_sets_ blocks of
  /// block_bytes_, starting on a host cache-line boundary.
  void allocate_blocks();
  /// The set block `line_addr` maps to, and its fingerprint there.
  Set set_of(std::uint64_t line_addr) const;
  /// Way of `s` holding `line_addr`, or kNoWay.
  std::uint32_t find(const Set& s, std::uint64_t line_addr) const;
  /// Marks way `w` of `s` most recently used.
  void stamp(const Set& s, std::uint32_t w);
  /// Evicts the victim of `s` and installs `line_addr` there, reporting a
  /// dirty victim as a writeback.
  AccessResult replace(const Set& s, std::uint64_t line_addr, LineKind kind,
                       bool dirty);

  CacheConfig cfg_;
  std::uint32_t num_sets_;
  std::size_t block_bytes_;
  std::size_t tag_offset_;  ///< byte offset of tag[0] in a block
  /// The recency word of a fresh set: nibble i = i for i < ways.
  std::uint64_t identity_;
  /// Raw storage from calloc, whose fresh pages need no zeroing pass: a
  /// cache built on them is faulted in by its first accesses.  The arrays
  /// and words inside are accessed through their own types.
  std::unique_ptr<std::byte[], FreeStorage> storage_;
  std::byte* blocks_ = nullptr;  ///< first host-line boundary in storage_
  Stats stats_;
};

}  // namespace eccsim::cache
