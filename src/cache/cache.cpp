#include "cache/cache.hpp"

#include <bit>
#include <stdexcept>

namespace eccsim::cache {

Cache::Cache(const CacheConfig& cfg) : cfg_(cfg) {
  if (cfg_.ways == 0 || cfg_.line_bytes == 0) {
    throw std::invalid_argument("Cache: ways/line_bytes must be nonzero");
  }
  const std::uint64_t lines = cfg_.size_bytes / cfg_.line_bytes;
  if (lines % cfg_.ways != 0) {
    throw std::invalid_argument("Cache: size not divisible by ways");
  }
  num_sets_ = static_cast<std::uint32_t>(lines / cfg_.ways);
  if (!std::has_single_bit(num_sets_)) {
    throw std::invalid_argument("Cache: set count must be a power of two");
  }
  tag_.assign(lines, 0);
  lru_.assign(lines, 0);
  kind_.assign(lines, LineKind::kData);
  dirty_.assign(lines, 0);
}

std::size_t Cache::set_base(std::uint64_t line_addr) const {
  // Mix upper bits into the index so that the disjoint address namespaces
  // used for ECC/XOR lines do not all collide into the same sets.
  std::uint64_t h = line_addr * 0x9e3779b97f4a7c15ULL;
  h ^= h >> 32;
  return static_cast<std::size_t>(h & (num_sets_ - 1)) * cfg_.ways;
}

std::size_t Cache::find(std::size_t base, std::uint64_t line_addr) const {
  for (std::size_t i = base, end = base + cfg_.ways; i < end; ++i) {
    if (tag_[i] == line_addr && lru_[i] != 0) return i;
  }
  return kNoWay;
}

AccessResult Cache::replace(std::size_t base, std::uint64_t line_addr,
                            LineKind kind, bool dirty) {
  std::size_t v = base;
  for (std::size_t i = base + 1, end = base + cfg_.ways; i < end; ++i) {
    if (lru_[i] < lru_[v]) v = i;
  }
  AccessResult result;
  if (dirty_[v] != 0) {  // an empty way is never dirty
    result.writeback = true;
    result.victim_addr = tag_[v];
    result.victim_kind = kind_[v];
    ++stats_.writebacks;
  }
  tag_[v] = line_addr;
  lru_[v] = tick_;
  kind_[v] = kind;
  dirty_[v] = dirty ? 1 : 0;
  return result;
}

AccessResult Cache::access(std::uint64_t line_addr, bool is_write,
                           LineKind kind) {
  ++tick_;
  const std::size_t base = set_base(line_addr);
  const std::size_t i = find(base, line_addr);
  if (i != kNoWay) {
    lru_[i] = tick_;
    if (is_write) dirty_[i] = 1;
    kind_[i] = kind;
    ++stats_.hits;
    return AccessResult{.hit = true};
  }
  ++stats_.misses;
  return replace(base, line_addr, kind, is_write);
}

AccessResult Cache::fill(std::uint64_t line_addr, LineKind kind) {
  const std::size_t base = set_base(line_addr);
  if (find(base, line_addr) != kNoWay) return AccessResult{.hit = true};
  ++tick_;
  // Prefetched sibling fills take the current tick like demand fills
  // (simple and adequate for this model).
  return replace(base, line_addr, kind, false);
}

bool Cache::contains(std::uint64_t line_addr) const {
  return find(set_base(line_addr), line_addr) != kNoWay;
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
