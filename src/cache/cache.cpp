#include "cache/cache.hpp"

#include <bit>
#include <cstring>
#include <new>
#include <stdexcept>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace eccsim::cache {

namespace {

constexpr std::size_t kHostLine = 64;
/// The 16-way recency word in way order: nibble i = i.
constexpr std::uint64_t kWayOrder = 0xfedcba9876543210ULL;
constexpr std::uint64_t kNibbleOnes = 0x1111111111111111ULL;
constexpr std::uint64_t kNibbleHighs = 0x8888888888888888ULL;

/// Bit w set where fingerprint byte w equals `key`.
std::uint32_t fingerprint_matches(const std::uint8_t* fp, std::uint8_t key) {
#if defined(__SSE2__)
  const __m128i ways = _mm_loadu_si128(reinterpret_cast<const __m128i*>(fp));
  return static_cast<std::uint32_t>(_mm_movemask_epi8(
      _mm_cmpeq_epi8(ways, _mm_set1_epi8(static_cast<char>(key)))));
#else
  std::uint32_t m = 0;
  for (std::uint32_t w = 0; w < 16; ++w) m |= std::uint32_t{fp[w] == key} << w;
  return m;
#endif
}

}  // namespace

Cache::Cache(const CacheConfig& cfg) : cfg_(cfg) {
  if (cfg_.ways == 0 || cfg_.line_bytes == 0) {
    throw std::invalid_argument("Cache: ways/line_bytes must be nonzero");
  }
  if (cfg_.ways > kMaxWays) {
    throw std::invalid_argument("Cache: at most 16 ways");
  }
  const std::uint64_t lines = cfg_.size_bytes / cfg_.line_bytes;
  if (lines % cfg_.ways != 0) {
    throw std::invalid_argument("Cache: size not divisible by ways");
  }
  num_sets_ = static_cast<std::uint32_t>(lines / cfg_.ways);
  if (!std::has_single_bit(num_sets_)) {
    throw std::invalid_argument("Cache: set count must be a power of two");
  }
  // fp[16] | order | meta[ways], padded to 8 | tag[ways], rounded up to
  // host lines.
  tag_offset_ = kMaxWays + 8 + (cfg_.ways + 7) / 8 * 8;
  const std::size_t used = tag_offset_ + std::size_t{8} * cfg_.ways;
  block_bytes_ = (used + kHostLine - 1) / kHostLine * kHostLine;
  identity_ = cfg_.ways == kMaxWays
                  ? kWayOrder
                  : kWayOrder & ((std::uint64_t{1} << 4 * cfg_.ways) - 1);
  allocate_blocks();  // zeroed: every way empty, every set in way order
}

Cache::Cache(const Cache& other)
    : cfg_(other.cfg_),
      num_sets_(other.num_sets_),
      block_bytes_(other.block_bytes_),
      tag_offset_(other.tag_offset_),
      identity_(other.identity_),
      stats_(other.stats_) {
  allocate_blocks();
  std::memcpy(blocks_, other.blocks_, block_bytes_ * num_sets_);
}

void Cache::allocate_blocks() {
  // calloc rather than an aligned allocation: the aligned allocator's
  // padding leaves holes that a later cache's block cannot reuse, which
  // grew the heap by whole caches over a run of simulations.
  storage_.reset(static_cast<std::byte*>(
      std::calloc(block_bytes_ * num_sets_ + kHostLine, 1)));
  if (!storage_) throw std::bad_alloc();
  const auto addr = reinterpret_cast<std::uintptr_t>(storage_.get());
  blocks_ = storage_.get() + (kHostLine - addr % kHostLine) % kHostLine;
}

Cache::Set Cache::set_of(std::uint64_t line_addr) const {
  // Mix upper bits into the index so that the disjoint address namespaces
  // used for ECC/XOR lines do not all collide into the same sets.  The
  // fingerprint is the product's top byte, which the index does not use.
  const std::uint64_t h = line_addr * 0x9e3779b97f4a7c15ULL;
  std::byte* b = blocks_ + static_cast<std::size_t>((h ^ (h >> 32)) &
                                                    (num_sets_ - 1)) *
                               block_bytes_;
  return Set{reinterpret_cast<std::uint8_t*>(b),
             reinterpret_cast<std::uint64_t*>(b + kMaxWays),
             reinterpret_cast<std::uint8_t*>(b + kMaxWays + 8),
             reinterpret_cast<std::uint64_t*>(b + tag_offset_),
             static_cast<std::uint8_t>(h >> 56 | 0x80)};
}

std::uint32_t Cache::find(const Set& s, std::uint64_t line_addr) const {
  // Empty ways and the padding past `ways` hold fingerprint 0, which no
  // key equals.
  for (std::uint32_t m = fingerprint_matches(s.fp, s.key); m != 0;
       m &= m - 1) {
    const auto w = static_cast<std::uint32_t>(std::countr_zero(m));
    if (s.tag[w] == line_addr) return w;
  }
  return kNoWay;
}

void Cache::stamp(const Set& s, std::uint32_t w) {
  const std::uint64_t order = *s.order ^ identity_;
  // Way w's rank is the lowest zero nibble of x: a borrow out of that
  // nibble can only mark nibbles above it.
  const std::uint64_t x = order ^ (w * kNibbleOnes);
  const std::uint64_t zero = (x - kNibbleOnes) & ~x & kNibbleHighs;
  const auto shift = static_cast<unsigned>(std::countr_zero(zero)) & ~3u;
  const std::uint64_t below = order & ((std::uint64_t{1} << shift) - 1);
  const std::uint64_t above = order >> shift >> 4;
  *s.order = (below | above << shift |
              std::uint64_t{w} << 4 * (cfg_.ways - 1)) ^
             identity_;
}

AccessResult Cache::replace(const Set& s, std::uint64_t line_addr,
                            LineKind kind, bool dirty) {
  const std::uint64_t order = *s.order ^ identity_;
  const auto v = static_cast<std::uint32_t>(order & 0xf);
  AccessResult result;
  if ((s.meta[v] & kDirty) != 0) {  // an empty way is never dirty
    result.writeback = true;
    result.victim_addr = s.tag[v];
    result.victim_kind = static_cast<LineKind>(s.meta[v] & ~kDirty);
    ++stats_.writebacks;
  }
  s.fp[v] = s.key;
  s.tag[v] = line_addr;
  s.meta[v] = static_cast<std::uint8_t>(static_cast<std::uint8_t>(kind) |
                                        (dirty ? kDirty : 0));
  // The victim is rank 0: rotate it to the top.
  *s.order = (order >> 4 | std::uint64_t{v} << 4 * (cfg_.ways - 1)) ^
             identity_;
  return result;
}

AccessResult Cache::access(std::uint64_t line_addr, bool is_write,
                           LineKind kind) {
  const Set s = set_of(line_addr);
  const std::uint32_t w = find(s, line_addr);
  if (w != kNoWay) {
    stamp(s, w);
    s.meta[w] = static_cast<std::uint8_t>(
        static_cast<std::uint8_t>(kind) |
        ((is_write ? kDirty : 0) | (s.meta[w] & kDirty)));
    ++stats_.hits;
    return AccessResult{.hit = true};
  }
  ++stats_.misses;
  return replace(s, line_addr, kind, is_write);
}

AccessResult Cache::fill(std::uint64_t line_addr, LineKind kind) {
  const Set s = set_of(line_addr);
  if (find(s, line_addr) != kNoWay) return AccessResult{.hit = true};
  // Prefetched sibling fills become most recent like demand fills (simple
  // and adequate for this model).
  return replace(s, line_addr, kind, false);
}

bool Cache::contains(std::uint64_t line_addr) const {
  return find(set_of(line_addr), line_addr) != kNoWay;
}

void Cache::prefetch(std::uint64_t line_addr) const {
  const auto* b = reinterpret_cast<const std::byte*>(set_of(line_addr).fp);
  for (std::size_t off = 0; off < block_bytes_; off += kHostLine) {
    __builtin_prefetch(b + off, 1);
  }
}

bool operator==(const Cache& a, const Cache& b) {
  return a.num_sets_ == b.num_sets_ && a.cfg_.ways == b.cfg_.ways &&
         a.stats_ == b.stats_ &&
         std::memcmp(a.blocks_, b.blocks_,
                     a.block_bytes_ * a.num_sets_) == 0;
}

void Cache::attach_stats(stats::Registry& reg, const std::string& prefix) {
  reg.gauge(prefix + ".hits", [this](std::uint64_t) {
    return static_cast<double>(stats_.hits);
  });
  reg.gauge(prefix + ".misses", [this](std::uint64_t) {
    return static_cast<double>(stats_.misses);
  });
  reg.gauge(prefix + ".writebacks", [this](std::uint64_t) {
    return static_cast<double>(stats_.writebacks);
  });
  reg.gauge(prefix + ".hit_rate",
            [this](std::uint64_t) { return stats_.hit_rate(); });
}

}  // namespace eccsim::cache
