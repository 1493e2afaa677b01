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
#include <string>
#include <vector>

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
/// Layout: four flat per-line arrays (tag, LRU tick, kind, dirty) indexed
/// by `set * ways + way`, so one set's tags are contiguous and a lookup
/// touches only the tag array until it matches.  `lru_ == 0` marks an
/// empty way: every access or fill stamps a fresh tick, and ticks start at
/// 1 and are unique.  The victim is therefore the argmin of `lru_` over the
/// set (first way on ties): the first empty way if there is one, else the
/// least-recently used line.
class Cache {
 public:
  explicit Cache(const CacheConfig& cfg);

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

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t writebacks = 0;
    double hit_rate() const {
      const auto total = hits + misses;
      return total ? static_cast<double>(hits) / static_cast<double>(total)
                   : 0.0;
    }
  };
  const Stats& stats() const { return stats_; }
  /// Clears hit/miss/writeback counters (end of a warmup phase); cache
  /// contents are untouched.
  void reset_stats() { stats_ = Stats{}; }

  std::uint32_t sets() const { return num_sets_; }
  std::uint32_t ways() const { return cfg_.ways; }

  /// Registers polled gauges over this cache's counters under `prefix`
  /// (e.g. "llc"): hits, misses, writebacks, hit_rate.  Observation only;
  /// the access hot path is untouched.  `reg` must outlive the cache's use.
  void attach_stats(stats::Registry& reg, const std::string& prefix);

 private:
  static constexpr std::size_t kNoWay = ~std::size_t{0};

  /// Index of the first slot of `line_addr`'s set.
  std::size_t set_base(std::uint64_t line_addr) const;
  /// Slot holding `line_addr` in the set starting at `base`, or kNoWay.
  std::size_t find(std::size_t base, std::uint64_t line_addr) const;
  /// Evicts the victim of the set at `base` and installs `line_addr` there,
  /// reporting a dirty victim as a writeback.
  AccessResult replace(std::size_t base, std::uint64_t line_addr,
                       LineKind kind, bool dirty);

  CacheConfig cfg_;
  std::uint32_t num_sets_;
  std::vector<std::uint64_t> tag_;
  std::vector<std::uint64_t> lru_;  ///< 0 = empty way
  std::vector<LineKind> kind_;
  std::vector<std::uint8_t> dirty_;
  std::uint64_t tick_ = 0;
  Stats stats_;
};

}  // namespace eccsim::cache
