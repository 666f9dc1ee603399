// Tests for the trace-driven cache model: geometry validation, hit/miss
// mechanics, replacement policies, miss classification, and the textbook
// conflict scenarios the paper's Sec. III-B analysis relies on.

#include <gtest/gtest.h>

#include "ddl/cachesim/cache.hpp"

namespace ddl::cache {
namespace {

CacheConfig small_direct() {
  // 8 lines of 64 B, direct-mapped: 512 B total.
  return {.size_bytes = 512, .line_bytes = 64, .associativity = 1};
}

TEST(CacheConfig, DerivedGeometry) {
  const CacheConfig c{.size_bytes = 512 * 1024, .line_bytes = 64, .associativity = 2};
  EXPECT_EQ(c.lines(), 8192u);
  EXPECT_EQ(c.ways(), 2u);
  EXPECT_EQ(c.sets(), 4096u);

  const CacheConfig fa{.size_bytes = 1024, .line_bytes = 64, .associativity = 0};
  EXPECT_EQ(fa.ways(), 16u);
  EXPECT_EQ(fa.sets(), 1u);
}

TEST(CacheConfig, ValidationErrors) {
  EXPECT_THROW(Cache({.size_bytes = 100, .line_bytes = 48, .associativity = 1}),
               std::invalid_argument);
  EXPECT_THROW(Cache({.size_bytes = 100, .line_bytes = 64, .associativity = 1}),
               std::invalid_argument);
  EXPECT_THROW(Cache({.size_bytes = 512, .line_bytes = 64, .associativity = -1}),
               std::invalid_argument);
  EXPECT_THROW(Cache({.size_bytes = 3 * 64, .line_bytes = 64, .associativity = 2}),
               std::invalid_argument);
}

TEST(Cache, SequentialSweepMissesOncePerLine) {
  Cache cache(small_direct());
  for (std::uint64_t addr = 0; addr < 512; addr += 8) cache.access(addr);
  const auto& s = cache.stats();
  EXPECT_EQ(s.accesses, 64u);
  EXPECT_EQ(s.misses, 8u);  // one per 64 B line
  EXPECT_EQ(s.compulsory_misses, 8u);
  EXPECT_EQ(s.conflict_misses, 0u);
  EXPECT_EQ(s.hits(), 56u);
}

TEST(Cache, ResidentWorkingSetAllHits) {
  Cache cache(small_direct());
  for (std::uint64_t addr = 0; addr < 512; addr += 64) cache.access(addr);  // fill
  const std::uint64_t misses_after_fill = cache.stats().misses;
  for (int rep = 0; rep < 10; ++rep) {
    for (std::uint64_t addr = 0; addr < 512; addr += 64) cache.access(addr);
  }
  EXPECT_EQ(cache.stats().misses, misses_after_fill);
}

TEST(Cache, DirectMappedConflictPingPong) {
  // Two addresses one cache-size apart map to the same set and evict each
  // other on every access in a direct-mapped cache.
  Cache cache(small_direct());
  for (int i = 0; i < 10; ++i) {
    cache.access(0);
    cache.access(512);
  }
  const auto& s = cache.stats();
  EXPECT_EQ(s.accesses, 20u);
  EXPECT_EQ(s.misses, 20u);
  EXPECT_EQ(s.compulsory_misses, 2u);
  EXPECT_EQ(s.conflict_misses, 18u);
  // Every fill except the very first displaces a valid line.
  EXPECT_EQ(s.evictions, 19u);
}

TEST(Cache, TwoWayAssociativityAbsorbsThePingPong) {
  CacheConfig cfg = small_direct();
  cfg.associativity = 2;
  Cache cache(cfg);
  for (int i = 0; i < 10; ++i) {
    cache.access(0);
    cache.access(512);
  }
  EXPECT_EQ(cache.stats().misses, 2u);  // compulsory only
  EXPECT_EQ(cache.stats().conflict_misses, 0u);
}

TEST(Cache, LruEvictsLeastRecentlyUsed) {
  // 2-way set: A, B fill the set; touching A again then C must evict B.
  CacheConfig cfg = small_direct();
  cfg.associativity = 2;
  Cache cache(cfg);
  cache.access(0);         // A (set 0)
  cache.access(512);       // B (set 0)
  cache.access(0);         // refresh A
  cache.access(1024);      // C evicts B under LRU
  EXPECT_FALSE(cache.access(512, false));  // B gone
  EXPECT_EQ(cache.stats().conflict_misses, 1u);
}

TEST(Cache, FifoEvictsOldestRegardlessOfUse) {
  CacheConfig cfg = small_direct();
  cfg.associativity = 2;
  cfg.replacement = Replacement::fifo;
  Cache cache(cfg);
  cache.access(0);     // A filled first
  cache.access(512);   // B
  cache.access(0);     // touch A (irrelevant under FIFO)
  cache.access(1024);  // C evicts A (oldest fill)
  EXPECT_TRUE(cache.access(512));   // B survived
  EXPECT_FALSE(cache.access(0));    // A was evicted
}

TEST(Cache, FullyAssociativeHoldsAnyResidentSet) {
  // A pathological power-of-two stride thrashes a direct-mapped cache but a
  // fully associative one holds everything that fits.
  CacheConfig fa{.size_bytes = 1024, .line_bytes = 64, .associativity = 0};
  Cache cache(fa);
  // 16 lines: touch addresses 0, 1024, 2048, ..., 15*1024 — same set in any
  // power-of-two indexed cache, but 16 distinct lines fit fully-assoc.
  for (int rep = 0; rep < 5; ++rep) {
    for (std::uint64_t i = 0; i < 16; ++i) cache.access(i * 1024);
  }
  EXPECT_EQ(cache.stats().misses, 16u);
  EXPECT_EQ(cache.stats().conflict_misses, 0u);
}

TEST(Cache, StatsCoherence) {
  Cache cache(small_direct());
  for (std::uint64_t a = 0; a < 4096; a += 32) cache.access(a, a % 64 == 0);
  const auto& s = cache.stats();
  EXPECT_EQ(s.accesses, s.reads + s.writes);
  EXPECT_EQ(s.misses, s.compulsory_misses + s.conflict_misses);
  EXPECT_EQ(s.hits() + s.misses, s.accesses);
  EXPECT_GT(s.miss_rate(), 0.0);
  EXPECT_LE(s.miss_rate(), 1.0);
}

// ---------------------------------------------------------------------------
// Prefetcher models
// ---------------------------------------------------------------------------

TEST(Prefetch, NextLineHalvesSequentialMisses) {
  CacheConfig cfg{.size_bytes = 64 * 1024, .line_bytes = 64, .associativity = 1};
  Cache demand(cfg);
  cfg.prefetch = Prefetch::next_line;
  Cache prefetched(cfg);
  for (std::uint64_t addr = 0; addr < 32 * 1024; addr += 64) {
    demand.access(addr);
    prefetched.access(addr);
  }
  EXPECT_EQ(demand.stats().misses, 512u);
  // With next-line prefetch every other line arrives early.
  EXPECT_EQ(prefetched.stats().misses, 256u);
  EXPECT_EQ(prefetched.stats().prefetch_hits, 256u);
  EXPECT_GE(prefetched.stats().prefetch_fills, 256u);
}

TEST(Prefetch, StreamDetectorCoversModerateConstantStride) {
  // A single strided stream within the tracking-region budget: after brief
  // per-region training, nearly everything arrives early.
  CacheConfig cfg{.size_bytes = 512 * 1024, .line_bytes = 64, .associativity = 8,
                  .replacement = Replacement::lru, .prefetch = Prefetch::stream,
                  .stream_table = 4};
  Cache cache(cfg);
  const std::uint64_t stride = 4096;  // 64 lines apart, 16 accesses per region
  for (std::uint64_t i = 0; i < 256; ++i) cache.access(i * stride);
  // Roughly one training miss per 64 KB region, far below the 256 demand
  // misses an unprefetched cache would take.
  EXPECT_LT(cache.stats().misses, 32u);
  EXPECT_GT(cache.stats().prefetch_hits, 200u);
}

TEST(Prefetch, StreamTableLimitsConcurrentStreams) {
  // More interleaved streams than table entries: entries thrash before they
  // gain confidence and the misses come back — the capacity cliff real
  // prefetchers have.
  const std::uint64_t n_streams = 16;
  auto run = [&](int table) {
    CacheConfig cfg{.size_bytes = 8 * 1024 * 1024, .line_bytes = 64, .associativity = 8,
                    .replacement = Replacement::lru, .prefetch = Prefetch::stream,
                    .stream_table = table};
    Cache cache(cfg);
    // 16 sequential streams in distinct regions (bases offset by a set-
    // de-aliasing skew so they do not all collide in one cache set),
    // advancing one line per step.
    for (std::uint64_t step = 0; step < 64; ++step) {
      for (std::uint64_t s = 0; s < n_streams; ++s) {
        cache.access(s * (16 * 1024 * 1024 + 8192) + step * 64);
      }
    }
    return cache.stats().misses;
  };
  const auto big_table = run(32);
  const auto tiny_table = run(2);
  EXPECT_LT(big_table, tiny_table / 4);
}

TEST(Prefetch, StrideBeyondRegionDefeatsTheDetector) {
  // A walk whose stride exceeds the tracking region never trains — the
  // reason the paper-era pathology (multi-MB strides) still hurts even
  // prefetching hardware when the stride is big enough.
  CacheConfig cfg{.size_bytes = 512 * 1024, .line_bytes = 64, .associativity = 8,
                  .replacement = Replacement::lru, .prefetch = Prefetch::stream,
                  .stream_table = 32};
  Cache cache(cfg);
  const std::uint64_t stride = 2 * 1024 * 1024;  // 2 MB >> 64 KB region
  for (std::uint64_t i = 0; i < 128; ++i) cache.access(i * stride);
  EXPECT_EQ(cache.stats().misses, 128u);
  EXPECT_EQ(cache.stats().prefetch_hits, 0u);
}

TEST(Prefetch, NoPrefetchStatsStayZero) {
  Cache cache(small_direct());
  for (std::uint64_t addr = 0; addr < 4096; addr += 64) cache.access(addr);
  EXPECT_EQ(cache.stats().prefetch_fills, 0u);
  EXPECT_EQ(cache.stats().prefetch_hits, 0u);
}

// ---------------------------------------------------------------------------
// The paper's Sec. III-B strided-access regimes.
// ---------------------------------------------------------------------------

TEST(StrideRegimes, SmallStrideKeepsSpatialReuse) {
  // Case I/II: N*S <= C — a second pass over the same strided vector hits.
  Cache cache({.size_bytes = 32 * 16, .line_bytes = 4 * 16, .associativity = 1});
  const std::uint64_t elem = 16;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint64_t i = 0; i < 4; ++i) cache.access(i * 4 * elem);  // N=4, S=4
  }
  EXPECT_EQ(cache.stats().misses, 4u);  // second pass all hits
}

TEST(StrideRegimes, LargePow2StrideConflictsInDirectMapped) {
  // Case III: stride a multiple of the cache size — every element maps to
  // set 0 and a vector longer than the associativity thrashes.
  Cache cache({.size_bytes = 512, .line_bytes = 64, .associativity = 1});
  for (int pass = 0; pass < 3; ++pass) {
    for (std::uint64_t i = 0; i < 4; ++i) cache.access(i * 512);
  }
  EXPECT_EQ(cache.stats().misses, 12u);  // no reuse at all across passes
  EXPECT_EQ(cache.stats().conflict_misses, 8u);
}

TEST(SplitRemiss, OffKeepsLumpedMeaningAndZeroCapacity) {
  // Default (split_remiss off): conflict_misses keeps its historical
  // conflict-or-capacity meaning and the capacity counter never moves, so
  // existing consumers see byte-identical numbers.
  Cache lumped(small_direct());
  CacheConfig split_cfg = small_direct();
  split_cfg.split_remiss = true;
  Cache split(split_cfg);
  for (int rep = 0; rep < 4; ++rep) {
    for (std::uint64_t a = 0; a < 2048; a += 64) {
      lumped.access(a, rep % 2 == 0);
      split.access(a, rep % 2 == 0);
    }
  }
  const auto& l = lumped.stats();
  const auto& s = split.stats();
  // The split changes classification only: totals agree exactly.
  EXPECT_EQ(l.accesses, s.accesses);
  EXPECT_EQ(l.misses, s.misses);
  EXPECT_EQ(l.compulsory_misses, s.compulsory_misses);
  EXPECT_EQ(l.capacity_misses, 0u);
  EXPECT_EQ(l.conflict_misses, s.capacity_misses + s.conflict_misses);
}

TEST(SplitRemiss, PingPongIsPureConflict) {
  // Two lines ping-ponging in one set of a direct-mapped cache fit easily
  // in the fully-associative shadow: every re-miss is manufactured by the
  // set mapping, i.e. a conflict miss, not a capacity miss.
  CacheConfig cfg = small_direct();
  cfg.split_remiss = true;
  Cache cache(cfg);
  for (int i = 0; i < 10; ++i) {
    cache.access(0);
    cache.access(512);
  }
  const auto& s = cache.stats();
  EXPECT_EQ(s.misses, 20u);
  EXPECT_EQ(s.compulsory_misses, 2u);
  EXPECT_EQ(s.conflict_misses, 18u);
  EXPECT_EQ(s.capacity_misses, 0u);
}

TEST(SplitRemiss, OversizedWorkingSetIsPureCapacity) {
  // A cyclic sweep over twice the cache's line count misses fully
  // associatively too (LRU evicts exactly the line about to be needed), so
  // every re-miss is a capacity miss: no set mapping could have saved it.
  CacheConfig cfg{.size_bytes = 512, .line_bytes = 64, .associativity = 0};
  cfg.split_remiss = true;
  Cache cache(cfg);
  for (int rep = 0; rep < 4; ++rep) {
    for (std::uint64_t a = 0; a < 1024; a += 64) cache.access(a);
  }
  const auto& s = cache.stats();
  EXPECT_EQ(s.compulsory_misses, 16u);
  EXPECT_EQ(s.conflict_misses, 0u);
  EXPECT_EQ(s.capacity_misses, s.misses - s.compulsory_misses);
  EXPECT_GT(s.capacity_misses, 0u);
}

TEST(SplitRemiss, StatsCoherenceThreeWay) {
  CacheConfig cfg = small_direct();
  cfg.split_remiss = true;
  Cache cache(cfg);
  for (std::uint64_t a = 0; a < 8192; a += 32) cache.access(a, a % 64 == 0);
  for (std::uint64_t a = 0; a < 8192; a += 128) cache.access(a);
  const auto& s = cache.stats();
  EXPECT_EQ(s.misses, s.compulsory_misses + s.capacity_misses + s.conflict_misses);
  EXPECT_EQ(s.hits() + s.misses, s.accesses);
}

}  // namespace
}  // namespace ddl::cache
