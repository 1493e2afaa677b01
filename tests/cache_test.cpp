// Unit tests for the shared LLC model.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "cache/cache.hpp"

namespace eccsim::cache {
namespace {

CacheConfig tiny_cache() {
  CacheConfig cfg;
  cfg.size_bytes = 64 * 64;  // 64 lines
  cfg.line_bytes = 64;
  cfg.ways = 4;              // 16 sets
  return cfg;
}

/// Streams fresh clean lines through `c` until `addr` is evicted; returns
/// the writeback that evicted it (writeback == false if it left clean).
AccessResult evict(Cache& c, std::uint64_t addr) {
  for (std::uint64_t x = 1'000'000; c.contains(addr); ++x) {
    const AccessResult r = c.access(x, false);
    if (r.writeback && r.victim_addr == addr) return r;
  }
  return AccessResult{};
}

/// Cache's set hash: the set `addr` maps to among `sets`.
std::uint64_t set_index(std::uint64_t sets, std::uint64_t addr) {
  std::uint64_t h = addr * 0x9e3779b97f4a7c15ULL;
  h ^= h >> 32;
  return h & (sets - 1);
}

/// Cache's way fingerprint of `addr`: the hash's top byte, bit 7 forced on.
std::uint8_t fingerprint(std::uint64_t addr) {
  return static_cast<std::uint8_t>((addr * 0x9e3779b97f4a7c15ULL) >> 56 |
                                   0x80);
}

/// `addr` in the address namespace of `kind` (0 data, 1 ECC, 2 XOR).
std::uint64_t in_namespace(std::uint64_t addr, std::uint64_t kind) {
  return kind == 1 ? addr | 1ULL << 63 : kind == 2 ? addr | 1ULL << 62 : addr;
}

/// The kind whose namespace `addr` lies in.
LineKind kind_of(std::uint64_t addr) {
  return static_cast<LineKind>(addr >> 63 ? 1 : addr >> 62 ? 2 : 0);
}

/// A nested-vector true-LRU cache kept as the oracle: a valid/dirty flag
/// per line, one global 64-bit tick that never saturates, and "first
/// invalid way, else least recently used" victim selection.  Same set hash
/// as Cache.
class ReferenceCache {
 public:
  explicit ReferenceCache(const CacheConfig& cfg)
      : sets_(cfg.size_bytes / cfg.line_bytes / cfg.ways,
              std::vector<Line>(cfg.ways)) {}

  AccessResult access(std::uint64_t addr, bool is_write, LineKind kind) {
    ++tick_;
    if (Line* line = find(addr)) {
      line->lru = tick_;
      line->dirty = line->dirty || is_write;
      line->kind = kind;
      ++stats.hits;
      return AccessResult{.hit = true};
    }
    ++stats.misses;
    return install(addr, kind, is_write);
  }
  AccessResult fill(std::uint64_t addr, LineKind kind) {
    if (find(addr)) return AccessResult{.hit = true};
    ++tick_;
    return install(addr, kind, false);
  }
  bool contains(std::uint64_t addr) { return find(addr) != nullptr; }

  Cache::Stats stats;

 private:
  struct Line {
    std::uint64_t addr = 0, lru = 0;
    LineKind kind = LineKind::kData;
    bool valid = false, dirty = false;
  };
  std::vector<Line>& set_of(std::uint64_t addr) {
    return sets_[set_index(sets_.size(), addr)];
  }
  Line* find(std::uint64_t addr) {
    for (auto& line : set_of(addr)) {
      if (line.valid && line.addr == addr) return &line;
    }
    return nullptr;
  }
  AccessResult install(std::uint64_t addr, LineKind kind, bool dirty) {
    auto& set = set_of(addr);
    Line* victim = &set[0];
    for (auto& line : set) {
      if (!line.valid) {
        victim = &line;
        break;
      }
      if (line.lru < victim->lru) victim = &line;
    }
    AccessResult r;
    if (victim->valid && victim->dirty) {
      r.writeback = true;
      r.victim_addr = victim->addr;
      r.victim_kind = victim->kind;
      ++stats.writebacks;
    }
    *victim = Line{addr, tick_, kind, true, dirty};
    return r;
  }

  std::vector<std::vector<Line>> sets_;
  std::uint64_t tick_ = 0;
};

TEST(Cache, ConfigValidation) {
  CacheConfig bad = tiny_cache();
  bad.ways = 0;
  EXPECT_THROW(Cache{bad}, std::invalid_argument);
  bad = tiny_cache();
  bad.size_bytes = 64 * 60;  // 15 sets: not a power of two
  EXPECT_THROW(Cache{bad}, std::invalid_argument);
  // One set each: a recency word ranks at most 16 ways.
  for (const std::uint32_t ways : {17u, 64u}) {
    bad.ways = ways;
    bad.size_bytes = 64ULL * ways;
    EXPECT_THROW(Cache{bad}, std::invalid_argument) << ways << " ways";
  }
  bad.ways = 16;
  bad.size_bytes = 64 * 16;
  EXPECT_NO_THROW(Cache{bad});
}

TEST(Cache, PaperLlcGeometry) {
  Cache llc{CacheConfig{}};  // defaults = Table I LLC
  EXPECT_EQ(llc.sets(), 8192u);
  EXPECT_EQ(llc.ways(), 16u);
}

TEST(Cache, MissThenHit) {
  Cache c{tiny_cache()};
  EXPECT_FALSE(c.access(100, false).hit);
  EXPECT_TRUE(c.access(100, false).hit);
  EXPECT_EQ(c.stats().hits, 1u);
  EXPECT_EQ(c.stats().misses, 1u);
}

TEST(Cache, WriteMakesDirtyVictim) {
  Cache c{tiny_cache()};
  c.access(42, true);  // dirty
  // Evict it by filling its set with enough conflicting lines.  Addresses
  // map through a hash, so brute-force: insert lines until 42 is gone.
  std::uint64_t addr = 1000;
  bool evicted_42 = false;
  for (int i = 0; i < 4096 && !evicted_42; ++i, ++addr) {
    const AccessResult r = c.access(addr, false);
    if (r.writeback && r.victim_addr == 42) evicted_42 = true;
  }
  EXPECT_TRUE(evicted_42);
}

TEST(Cache, CleanVictimNeedsNoWriteback) {
  Cache c{tiny_cache()};
  c.access(42, false);  // clean
  std::uint64_t addr = 1000;
  for (int i = 0; i < 4096; ++i, ++addr) {
    const AccessResult r = c.access(addr, false);
    ASSERT_FALSE(r.writeback && r.victim_addr == 42)
        << "clean line must not be written back";
    if (!c.contains(42)) break;
  }
  EXPECT_FALSE(c.contains(42));
}

TEST(Cache, LruEvictsOldest) {
  // Access two dirty lines, refresh the first, then stream conflicting
  // lines through: each victim is written back exactly once, and the
  // refreshed line must not be evicted before the stale one in its set.
  Cache c{tiny_cache()};
  c.access(10, true);
  c.access(20, true);
  c.access(10, false);  // refresh 10
  int evictions_10 = 0, evictions_20 = 0;
  for (std::uint64_t x = 5000; x < 9096; ++x) {
    const auto r = c.access(x, false);
    if (r.writeback && r.victim_addr == 10) ++evictions_10;
    if (r.writeback && r.victim_addr == 20) ++evictions_20;
    if (!c.contains(10) && !c.contains(20)) break;
  }
  EXPECT_EQ(evictions_10, 1);
  EXPECT_EQ(evictions_20, 1);
}

TEST(Cache, FillDoesNotMarkDirty) {
  Cache c{tiny_cache()};
  c.fill(77);
  EXPECT_TRUE(c.contains(77));
  EXPECT_FALSE(evict(c, 77).writeback);  // left clean
  EXPECT_FALSE(c.contains(77));
}

TEST(Cache, FillOnPresentLineIsNoop) {
  Cache c{tiny_cache()};
  c.access(77, true, LineKind::kEcc);
  const auto r = c.fill(77, LineKind::kXor);
  EXPECT_TRUE(r.hit);
  EXPECT_EQ(c.stats().writebacks, 0u);
  // Still dirty from the write, and the fill did not retag its kind.
  const AccessResult wb = evict(c, 77);
  EXPECT_TRUE(wb.writeback);
  EXPECT_EQ(wb.victim_kind, LineKind::kEcc);
}

TEST(Cache, KindsAreTracked) {
  Cache c{tiny_cache()};
  c.access(1, true, LineKind::kXor);
  std::uint64_t addr = 1000;
  bool saw_xor_victim = false;
  for (int i = 0; i < 4096 && !saw_xor_victim; ++i, ++addr) {
    const auto r = c.access(addr, false);
    if (r.writeback && r.victim_addr == 1) {
      saw_xor_victim = r.victim_kind == LineKind::kXor;
    }
  }
  EXPECT_TRUE(saw_xor_victim);
}

TEST(Cache, HitRateComputation) {
  Cache c{tiny_cache()};
  c.access(1, false);
  c.access(1, false);
  c.access(1, false);
  c.access(2, false);
  EXPECT_NEAR(c.stats().hit_rate(), 0.5, 1e-9);
}

TEST(Cache, WorkingSetSmallerThanCacheAlwaysHitsAfterWarmup) {
  Cache c{tiny_cache()};
  for (std::uint64_t a = 0; a < 32; ++a) c.access(a, false);
  const auto misses_before = c.stats().misses;
  for (int pass = 0; pass < 10; ++pass) {
    for (std::uint64_t a = 0; a < 32; ++a) c.access(a, false);
  }
  // A 64-line cache holding a 32-line working set may still conflict-miss
  // under hashed indexing, but the steady-state miss rate must be tiny.
  EXPECT_LE(c.stats().misses - misses_before, 32u);
}

/// Asserts that one call's results and the counters after it agree.
void expect_same(const Cache& flat, const ReferenceCache& ref,
                 const AccessResult& a, const AccessResult& b,
                 std::uint64_t i) {
  ASSERT_EQ(a.hit, b.hit) << "call " << i;
  ASSERT_EQ(a.writeback, b.writeback) << "call " << i;
  ASSERT_EQ(a.victim_addr, b.victim_addr) << "call " << i;
  ASSERT_EQ(a.victim_kind, b.victim_kind) << "call " << i;
  ASSERT_EQ(flat.stats().hits, ref.stats.hits) << "call " << i;
  ASSERT_EQ(flat.stats().misses, ref.stats.misses) << "call " << i;
  ASSERT_EQ(flat.stats().writebacks, ref.stats.writebacks) << "call " << i;
}

// Differential test: the flat cache and the nested-vector reference see
// the same seeded stream of access/fill/contains -- hot-set hits, conflict
// misses, dirty and clean lines, all three line kinds in their address
// namespaces, and now and then a kind other than the namespace's, as when
// a faulty bank turns an XOR key into an ECC line -- and must agree on
// every result and counter after each call.
void drive(Cache& flat, ReferenceCache& ref, const CacheConfig& cfg,
           std::mt19937_64& rng, std::uint64_t calls) {
  const std::uint64_t lines = cfg.size_bytes / cfg.line_bytes;
  auto below = [&](std::uint64_t n) { return rng() % n; };
  for (std::uint64_t i = 0; i < calls; ++i) {
    // A hot set of half the cache's lines, the rest spread over 4x it.
    std::uint64_t addr = below(4) == 0 ? below(lines / 2) : below(4 * lines);
    auto kind = static_cast<LineKind>(below(3));
    addr = in_namespace(addr, static_cast<std::uint64_t>(kind));
    if (below(8) == 0) kind = static_cast<LineKind>(below(3));
    const std::uint64_t op = below(10);
    AccessResult a, b;
    if (op < 6) {
      const bool is_write = below(3) == 0;
      a = flat.access(addr, is_write, kind);
      b = ref.access(addr, is_write, kind);
    } else if (op < 9) {
      a = flat.fill(addr, kind);
      b = ref.fill(addr, kind);
    } else {
      ASSERT_EQ(flat.contains(addr), ref.contains(addr)) << "call " << i;
    }
    expect_same(flat, ref, a, b, i);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

void expect_matches_reference(const CacheConfig& cfg, std::uint64_t calls) {
  Cache flat{cfg};
  ReferenceCache ref{cfg};
  std::mt19937_64 rng(cfg.size_bytes / cfg.line_bytes * 31 + cfg.ways);
  drive(flat, ref, cfg, rng, calls);
  // The stream must have exercised every outcome.
  EXPECT_GT(flat.stats().hits, calls / 20);
  EXPECT_GT(flat.stats().writebacks, calls / 20);
}

/// Puts 2 * ways lines that share one set and one fingerprint byte, from
/// all three address namespaces, through a seeded stream of hits, misses,
/// fills and lookups: every lookup then finds several candidate ways and
/// must tell them apart by tag.
void expect_matches_reference_on_shared_fingerprint(const CacheConfig& cfg) {
  Cache flat{cfg};
  ReferenceCache ref{cfg};
  const std::uint64_t sets = cfg.size_bytes / cfg.line_bytes / cfg.ways;
  const std::uint64_t target_set = set_index(sets, 0);
  const std::uint8_t target_fp = fingerprint(1);
  std::vector<std::uint64_t> pool;
  for (std::uint64_t a = 1; pool.size() < 2u * cfg.ways; ++a) {
    const std::uint64_t addr = in_namespace(a, pool.size() % 3);
    if (set_index(sets, addr) == target_set &&
        fingerprint(addr) == target_fp) {
      pool.push_back(addr);
    }
  }
  std::mt19937_64 rng(cfg.ways * 7 + 1);
  auto below = [&](std::uint64_t n) { return rng() % n; };
  for (std::uint64_t i = 0; i < 20'000; ++i) {
    const std::uint64_t addr = pool[below(pool.size())];
    AccessResult a, b;
    if (below(4) == 0) {
      a = flat.fill(addr, kind_of(addr));
      b = ref.fill(addr, kind_of(addr));
    } else {
      const bool is_write = below(2) == 0;
      a = flat.access(addr, is_write, kind_of(addr));
      b = ref.access(addr, is_write, kind_of(addr));
    }
    expect_same(flat, ref, a, b, i);
    const std::uint64_t probe = pool[below(pool.size())];
    ASSERT_EQ(flat.contains(probe), ref.contains(probe)) << "call " << i;
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(flat.stats().hits, 1'000u);
  EXPECT_GT(flat.stats().writebacks, 1'000u);
}

/// Drives more than 65,536 touches through each of two sets, long enough
/// for any 16-bit per-set recency state to wrap, and checks every result
/// against the reference.  Phase 1 accesses half of each set's ways
/// round-robin, exactly 65,536 times, while the other half stay empty at
/// the least-recent end.  Phase 2 mixes hits, misses and fills over twice the
/// set's ways, so its first misses must fill the empty ways and spare the
/// least-recent line, and later victims come from a full set.  Two sets
/// share the stream so that per-set recency, not a global one, is
/// exercised.
void expect_matches_reference_past_tick_overflow(const CacheConfig& cfg) {
  Cache flat{cfg};
  ReferenceCache ref{cfg};
  const std::uint64_t sets = cfg.size_bytes / cfg.line_bytes / cfg.ways;
  // Each target set's lines: 2 * ways addresses spread over the data, ECC
  // and XOR namespaces.
  std::vector<std::vector<std::uint64_t>> pools(2);
  const std::uint64_t targets[2] = {set_index(sets, 0) ^ 1,
                                    set_index(sets, 0)};
  for (std::uint64_t a = 1; pools[0].size() < 2u * cfg.ways ||
                            pools[1].size() < 2u * cfg.ways;
       ++a) {
    const std::uint64_t addr = in_namespace(a, a % 3);
    for (int t = 0; t < 2; ++t) {
      if (set_index(sets, addr) == targets[t] &&
          pools[t].size() < 2u * cfg.ways) {
        pools[t].push_back(addr);
      }
    }
  }
  std::mt19937_64 rng(cfg.ways);
  auto below = [&](std::uint64_t n) { return rng() % n; };
  auto step = [&](std::uint64_t i, std::uint64_t addr, bool fill) {
    const LineKind kind = kind_of(addr);
    AccessResult a, b;
    if (fill) {
      a = flat.fill(addr, kind);
      b = ref.fill(addr, kind);
    } else {
      const bool is_write = below(3) == 0;
      a = flat.access(addr, is_write, kind);
      b = ref.access(addr, is_write, kind);
    }
    ASSERT_EQ(a.hit, b.hit) << "call " << i;
    ASSERT_EQ(a.writeback, b.writeback) << "call " << i;
    ASSERT_EQ(a.victim_addr, b.victim_addr) << "call " << i;
    ASSERT_EQ(a.victim_kind, b.victim_kind) << "call " << i;
    ASSERT_EQ(flat.contains(addr), ref.contains(addr)) << "call " << i;
  };
  const std::uint64_t half = std::max<std::uint64_t>(1, cfg.ways / 2);
  std::uint64_t i = 0;
  for (std::uint64_t n = 0; n < 65'536; ++n) {
    for (const auto& pool : pools) {
      // The 65,536th access repeats the most recent line, so the least
      // recent one keeps its rank into phase 2.
      step(i++, pool[std::min<std::uint64_t>(n, 65'534) % half], false);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  for (const std::uint64_t end = i + 400'000; i < end;) {
    step(i++, pools[below(2)][below(2 * cfg.ways)], below(4) == 0);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_EQ(flat.stats().hits, ref.stats.hits);
  EXPECT_EQ(flat.stats().misses, ref.stats.misses);
  EXPECT_EQ(flat.stats().writebacks, ref.stats.writebacks);
  EXPECT_GT(flat.stats().writebacks, 10'000u);
}

TEST(CacheDifferential, PaperLlcMatchesReference) {
  expect_matches_reference(CacheConfig{}, 1'000'000);  // 16-way, Table I
}

TEST(CacheDifferential, DedicatedEccCacheMatchesReference) {
  CacheConfig cfg;  // SimOptions::dedicated_ecc_cache_bytes = 128 KB
  cfg.size_bytes = 128 * 1024;
  cfg.ways = 8;
  expect_matches_reference(cfg, 200'000);
}

TEST(CacheDifferential, TinyCacheMatchesReference) {
  expect_matches_reference(tiny_cache(), 100'000);  // 4-way
}

TEST(CacheDifferential, PaperLlcMatchesReferencePastTickOverflow) {
  expect_matches_reference_past_tick_overflow(CacheConfig{});
}

TEST(CacheDifferential, DedicatedEccCacheMatchesReferencePastTickOverflow) {
  CacheConfig cfg;
  cfg.size_bytes = 128 * 1024;
  cfg.ways = 8;
  expect_matches_reference_past_tick_overflow(cfg);
}

TEST(CacheDifferential, TinyCacheMatchesReferencePastTickOverflow) {
  expect_matches_reference_past_tick_overflow(tiny_cache());
}

TEST(CacheDifferential, SharedFingerprintMatchesReference) {
  CacheConfig ecc_cache;
  ecc_cache.size_bytes = 128 * 1024;
  ecc_cache.ways = 8;
  for (const CacheConfig& cfg : {CacheConfig{}, ecc_cache, tiny_cache()}) {
    SCOPED_TRACE(::testing::Message() << cfg.ways << " ways");
    expect_matches_reference_on_shared_fingerprint(cfg);
  }
}

// A WarmState hands each sweep cell a copy of its warmed LLC: the copy
// must continue exactly where the original stood, and the original must
// not see the copy's calls.
TEST(CacheDifferential, CopiedCacheMatchesReference) {
  const CacheConfig cfg;  // the LLC a WarmState holds
  Cache warm{cfg};
  ReferenceCache ref{cfg};
  std::mt19937_64 rng(17);
  drive(warm, ref, cfg, rng, 300'000);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  Cache copy{warm};
  EXPECT_TRUE(copy == warm);
  ReferenceCache ref_copy = ref;
  std::mt19937_64 rng_copy = rng;
  drive(copy, ref_copy, cfg, rng_copy, 300'000);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  EXPECT_FALSE(copy == warm);
  drive(warm, ref, cfg, rng, 300'000);
  EXPECT_TRUE(copy == warm);  // the same calls reach the same bytes
}

}  // namespace
}  // namespace eccsim::cache
