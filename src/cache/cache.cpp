#include "cache/cache.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <limits>
#include <new>
#include <stdexcept>

namespace eccsim::cache {

namespace {

constexpr std::size_t kHostLine = 64;

}  // namespace

Cache::Cache(const CacheConfig& cfg) : cfg_(cfg) {
  if (cfg_.ways == 0 || cfg_.line_bytes == 0) {
    throw std::invalid_argument("Cache: ways/line_bytes must be nonzero");
  }
  if (cfg_.ways > kMaxWays) {
    throw std::invalid_argument("Cache: at most 64 ways");
  }
  const std::uint64_t lines = cfg_.size_bytes / cfg_.line_bytes;
  if (lines % cfg_.ways != 0) {
    throw std::invalid_argument("Cache: size not divisible by ways");
  }
  num_sets_ = static_cast<std::uint32_t>(lines / cfg_.ways);
  if (!std::has_single_bit(num_sets_)) {
    throw std::invalid_argument("Cache: set count must be a power of two");
  }
  // tag[ways] | lru[ways] | clock | meta[ways], rounded up to host lines.
  const std::size_t used = std::size_t{11} * cfg_.ways + 2;
  block_bytes_ = (used + kHostLine - 1) / kHostLine * kHostLine;
  allocate_blocks();  // zeroed: every way empty
}

Cache::Cache(const Cache& other)
    : cfg_(other.cfg_),
      num_sets_(other.num_sets_),
      block_bytes_(other.block_bytes_),
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

std::size_t Cache::block_offset(std::uint64_t line_addr) const {
  // Mix upper bits into the index so that the disjoint address namespaces
  // used for ECC/XOR lines do not all collide into the same sets.
  std::uint64_t h = line_addr * 0x9e3779b97f4a7c15ULL;
  h ^= h >> 32;
  return static_cast<std::size_t>(h & (num_sets_ - 1)) * block_bytes_;
}

Cache::Set Cache::set_of(std::uint64_t line_addr) {
  std::byte* b = blocks_ + block_offset(line_addr);
  auto* lru = reinterpret_cast<std::uint16_t*>(b + 8 * cfg_.ways);
  return Set{reinterpret_cast<std::uint64_t*>(b), lru, lru + cfg_.ways,
             reinterpret_cast<std::uint8_t*>(lru + cfg_.ways + 1)};
}

std::uint32_t Cache::find(const std::uint64_t* tag, const std::uint16_t* lru,
                          std::uint64_t line_addr) const {
  for (std::uint32_t w = 0; w < cfg_.ways; ++w) {
    if (tag[w] == line_addr && lru[w] != 0) return w;
  }
  return kNoWay;
}

void Cache::stamp(const Set& s, std::uint32_t w) {
  if (*s.clock == std::numeric_limits<std::uint16_t>::max()) renormalize(s);
  s.lru[w] = ++*s.clock;
}

void Cache::renormalize(const Set& s) {
  // Valid ways get ranks 1..k in LRU order (their ticks are unique), and
  // empty ways stay 0.
  std::array<std::uint16_t, kMaxWays> old;
  std::copy(s.lru, s.lru + cfg_.ways, old.begin());
  std::uint16_t valid = 0;
  for (std::uint32_t i = 0; i < cfg_.ways; ++i) {
    if (old[i] == 0) continue;
    ++valid;
    std::uint16_t rank = 1;
    for (std::uint32_t j = 0; j < cfg_.ways; ++j) {
      if (old[j] != 0 && old[j] < old[i]) ++rank;
    }
    s.lru[i] = rank;
  }
  *s.clock = valid;
}

AccessResult Cache::replace(const Set& s, std::uint64_t line_addr,
                            LineKind kind, bool dirty) {
  // Branch-free argmin: which way is oldest is unpredictable.
  std::uint32_t v = 0;
  std::uint16_t least = s.lru[0];
  for (std::uint32_t w = 1; w < cfg_.ways; ++w) {
    const bool older = s.lru[w] < least;
    v = older ? w : v;
    least = older ? s.lru[w] : least;
  }
  AccessResult result;
  if ((s.meta[v] & kDirty) != 0) {  // an empty way is never dirty
    result.writeback = true;
    result.victim_addr = s.tag[v];
    result.victim_kind = static_cast<LineKind>(s.meta[v] & ~kDirty);
    ++stats_.writebacks;
  }
  s.tag[v] = line_addr;
  stamp(s, v);
  s.meta[v] = static_cast<std::uint8_t>(static_cast<std::uint8_t>(kind) |
                                        (dirty ? kDirty : 0));
  return result;
}

AccessResult Cache::access(std::uint64_t line_addr, bool is_write,
                           LineKind kind) {
  const Set s = set_of(line_addr);
  const std::uint32_t w = find(s.tag, s.lru, line_addr);
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
  if (find(s.tag, s.lru, line_addr) != kNoWay) return AccessResult{.hit = true};
  // Prefetched sibling fills take the next tick like demand fills (simple
  // and adequate for this model).
  return replace(s, line_addr, kind, false);
}

bool Cache::contains(std::uint64_t line_addr) const {
  const std::byte* b = blocks_ + block_offset(line_addr);
  return find(reinterpret_cast<const std::uint64_t*>(b),
              reinterpret_cast<const std::uint16_t*>(b + 8 * cfg_.ways),
              line_addr) != kNoWay;
}

void Cache::prefetch(std::uint64_t line_addr) const {
  const std::byte* b = blocks_ + block_offset(line_addr);
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
