// Tests for the address-trace generator: exact access-count accounting
// against closed-form formulas, compulsory-only behaviour under an ideal
// cache, the paper's Fig. 6 worked example, the headline qualitative
// result (DDL produces fewer misses than SDL once the transform exceeds the
// cache), and exact tables for whole-plan traces and the simulated oracle.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <iterator>
#include <vector>

#include "ddl/cachesim/cache.hpp"
#include "ddl/plan/grammar.hpp"
#include "ddl/sim/trace.hpp"

namespace ddl::sim {
namespace {

cache::Cache ideal_cache() {
  // A direct-mapped cache far larger than any trace's address space: every
  // line has its own set, so every miss is compulsory and lookups are O(1).
  return cache::Cache({.size_bytes = 1 << 28, .line_bytes = 64, .associativity = 1});
}

/// Accesses a single split node (n1 x n2) contributes beyond its children:
/// twiddle pass (3 accesses per non-trivial element) + permutation
/// (4 accesses per element: gather read+write, unpack read+write).
std::uint64_t split_overhead_accesses(index_t n1, index_t n2) {
  const auto n = static_cast<std::uint64_t>(n1 * n2);
  const std::uint64_t tw = 3ull * static_cast<std::uint64_t>(n1 - 1) *
                           static_cast<std::uint64_t>(n2 - 1);
  return tw + 4ull * n;
}

TEST(TraceFft, LeafAccessCount) {
  auto cache = ideal_cache();
  trace_fft(*plan::parse_tree("16"), cache);
  EXPECT_EQ(cache.stats().accesses, 32u);  // n reads + n writes
  EXPECT_EQ(cache.stats().reads, 16u);
  EXPECT_EQ(cache.stats().writes, 16u);
}

TEST(TraceFft, SingleSplitAccessCount) {
  auto cache = ideal_cache();
  trace_fft(*plan::parse_tree("ct(4,8)"), cache);
  // children: 8 leaves of 4 (2*4 each) + 4 leaves of 8 (2*8 each) = 128.
  const std::uint64_t expect = 8 * 8 + 4 * 16 + split_overhead_accesses(4, 8);
  EXPECT_EQ(cache.stats().accesses, expect);
}

TEST(TraceFft, DdlSplitAddsReorganizationTraffic) {
  auto sdl_cache = ideal_cache();
  trace_fft(*plan::parse_tree("ct(16,16)"), sdl_cache);
  auto ddl_cache = ideal_cache();
  trace_fft(*plan::parse_tree("ctddl(16,16)"), ddl_cache);
  // gather + scatter: 2 accesses each per element = 4 * 256 extra.
  EXPECT_EQ(ddl_cache.stats().accesses, sdl_cache.stats().accesses + 4 * 256);
}

TEST(TraceFft, NestedTreeAccessCount) {
  auto cache = ideal_cache();
  trace_fft(*plan::parse_tree("ct(ct(4,4),16)"), cache);
  // Root 256 = 16x16: 16 instances of ct(4,4) + 16 leaves of 16 + overhead.
  const std::uint64_t inner = 4 * 8 + 4 * 8 + split_overhead_accesses(4, 4);
  const std::uint64_t expect = 16 * inner + 16 * 32 + split_overhead_accesses(16, 16);
  EXPECT_EQ(cache.stats().accesses, expect);
}

TEST(TraceFft, IdealCacheMissesAreCompulsoryOnly) {
  auto cache = ideal_cache();
  trace_fft(*plan::parse_tree("ctddl(ct(16,16),ct(16,16))"), cache);
  EXPECT_EQ(cache.stats().conflict_misses, 0u);
  EXPECT_GT(cache.stats().compulsory_misses, 0u);
}

TEST(TraceFft, TwiddleTrafficCanBeExcluded) {
  auto with_cache = ideal_cache();
  trace_fft(*plan::parse_tree("ct(8,8)"), with_cache, {.elem_bytes = 16, .include_twiddles = true});
  auto without_cache = ideal_cache();
  trace_fft(*plan::parse_tree("ct(8,8)"), without_cache,
            {.elem_bytes = 16, .include_twiddles = false});
  EXPECT_EQ(with_cache.stats().accesses - without_cache.stats().accesses, 7u * 7u);
}

TEST(TraceWht, AccessCounts) {
  auto cache = ideal_cache();
  trace_wht(*plan::parse_tree("ct(8,8)"), cache);
  // 8 row leaves + 8 column leaves, 2*8 accesses each; no twiddle/permute.
  EXPECT_EQ(cache.stats().accesses, 8u * 16 + 8u * 16);

  auto ddl_cache = ideal_cache();
  trace_wht(*plan::parse_tree("ctddl(8,8)"), ddl_cache);
  EXPECT_EQ(ddl_cache.stats().accesses, 8u * 16 + 8u * 16 + 4u * 64);
}

TEST(ReplayPass, L2SeesOnlyL1Misses) {
  // A working set of 4 lines walked 4 times: too big for the 2-line L1,
  // fits the 16-line L2.
  verify::cachepred::StreamRef line;
  line.loop_step = {0};
  line.elem_step = 64;
  line.width = 16;
  verify::cachepred::AccessPass pass;
  pass.loops = {4};
  pass.sweeps = {{4, {line}}};
  cache::Cache l1({.size_bytes = 128, .line_bytes = 64, .associativity = 1});
  cache::Cache l2({.size_bytes = 1024, .line_bytes = 64, .associativity = 1});
  replay_pass(pass, l1, &l2);
  EXPECT_EQ(l1.stats().accesses, 16u);
  EXPECT_GT(l1.stats().misses, 4u);
  EXPECT_EQ(l2.stats().accesses, l1.stats().misses);
  EXPECT_EQ(l2.stats().misses, 4u);  // L2 holds the set: compulsory only
}

// ---------------------------------------------------------------------------
// The paper's worked example (Fig. 6): 256-point DFT as 16 x 16 with a
// 64-point direct-mapped cache, 4-point lines (C = 64, B = 4, 16-byte
// points: 1 KB cache, 64 B lines).
// ---------------------------------------------------------------------------

TEST(PaperFig6, StridedStageThrashesFourLines) {
  // A 16-point DFT at stride 16: every 4th point maps to the same line set;
  // 16 points land on only 4 distinct cache sets -> conflicts within one DFT.
  cache::Cache dm({.size_bytes = 64 * 16, .line_bytes = 4 * 16, .associativity = 1});
  replay_pass(verify::cachepred::leaf_sweep_pass(16, 16, 1, sizeof(cplx)), dm);
  // 16 points at stride 16 touch 16 distinct lines mapping onto 4 sets:
  // every access (read pass and write pass) misses.
  EXPECT_EQ(dm.stats().accesses, 32u);
  EXPECT_EQ(dm.stats().misses, 32u);
  EXPECT_EQ(dm.stats().conflict_misses, 32u - 16u);
}

TEST(PaperFig6, ReorganizedStageHasNoConflicts) {
  // After reorganization the same 16 points are contiguous: 4 lines, no
  // conflicts, and the write pass hits everything.
  cache::Cache dm({.size_bytes = 64 * 16, .line_bytes = 4 * 16, .associativity = 1});
  replay_pass(verify::cachepred::leaf_sweep_pass(16, 1, 1, sizeof(cplx)), dm);
  EXPECT_EQ(dm.stats().accesses, 32u);
  EXPECT_EQ(dm.stats().misses, 4u);  // compulsory line fetches only
  EXPECT_EQ(dm.stats().conflict_misses, 0u);
}

TEST(PaperFig3, SuccessiveDftsLoseReuseAtLargeStride) {
  // Sec. III-B Case III: with N*S > C and S a power of two, the second DFT
  // cannot reuse lines fetched by the first.
  cache::Cache dm({.size_bytes = 32 * 16, .line_bytes = 4 * 16, .associativity = 1});
  // Two successive 4-point DFTs at stride 32.
  replay_pass(verify::cachepred::leaf_sweep_pass(4, 32, 2, sizeof(cplx)), dm);
  // Each DFT: 4 points, all mapping to the same set (stride 32 elements =
  // cache size): misses on every access, nothing reused across DFTs.
  EXPECT_EQ(dm.stats().misses, dm.stats().accesses);
}

TEST(PaperFig3, SuccessiveDftsReuseAtSmallStride) {
  // Case II: N*S <= C — the second DFT's points share lines with the first.
  cache::Cache dm({.size_bytes = 32 * 16, .line_bytes = 4 * 16, .associativity = 1});
  replay_pass(verify::cachepred::leaf_sweep_pass(4, 4, 2, sizeof(cplx)), dm);
  // First DFT misses 4 lines; second DFT (offset 1 element) hits them all.
  EXPECT_EQ(dm.stats().misses, 4u);
}

// ---------------------------------------------------------------------------
// Headline qualitative result
// ---------------------------------------------------------------------------

TEST(DdlVsSdl, FewerMissesOncePastCacheSize) {
  // 2^16 points (1 MB of complex data) against a 512 KB direct-mapped cache.
  const cache::CacheConfig cfg{.size_bytes = 512 * 1024, .line_bytes = 64, .associativity = 1};

  cache::Cache sdl(cfg);
  trace_fft(*plan::parse_tree("ct(256,256)"), sdl);

  cache::Cache ddl(cfg);
  trace_fft(*plan::parse_tree("ctddl(256,256)"), ddl);

  EXPECT_LT(ddl.stats().misses, sdl.stats().misses);
  // The only extra traffic is the gather/scatter pair: exactly 4n accesses.
  // (For this shallow one-split tree that is ~36% of the total; the paper's
  // <3% access-increase figure arises on deep trees where one reorganization
  // serves several levels — checked in bench/table2_accesses.)
  EXPECT_EQ(ddl.stats().accesses,
            sdl.stats().accesses + 4ull * static_cast<std::uint64_t>(1 << 16));
}

TEST(DdlVsSdl, NoPenaltyBelowCacheSize) {
  // 2^12 points (64 KB) fit in a 512 KB cache: both layouts are compulsory-
  // dominated and DDL's extra traffic is the only difference.
  const cache::CacheConfig cfg{.size_bytes = 512 * 1024, .line_bytes = 64, .associativity = 1};
  cache::Cache sdl(cfg);
  trace_fft(*plan::parse_tree("ct(64,64)"), sdl);
  cache::Cache ddl(cfg);
  trace_fft(*plan::parse_tree("ctddl(64,64)"), ddl);
  // Misses comparable (within the extra compulsory traffic of the scratch).
  EXPECT_LT(static_cast<double>(ddl.stats().misses),
            1.5 * static_cast<double>(sdl.stats().misses) + 4096);
}

// ---------------------------------------------------------------------------
// Exact tables. Before the tracers and the oracle walked cachepred's passes,
// sim/trace.cpp spelled out every stage's address loop by hand; these rows
// are what those hand walkers produced, so the pass walkers are held to the
// same numbers, ragged 16x16 tilings (sides 24, 40, 48) included.
// ---------------------------------------------------------------------------

/// Geometries of the whole-plan table, by index.
std::vector<cache::CacheConfig> table_caches() {
  return {
      {.size_bytes = 512 * 1024, .line_bytes = 64, .associativity = 1},
      {.size_bytes = 32 * 1024, .line_bytes = 32, .associativity = 2},
      {.size_bytes = 256 * 1024, .line_bytes = 64, .associativity = 4,
       .replacement = cache::Replacement::fifo},
      {.size_bytes = 512 * 1024, .line_bytes = 64, .associativity = 8,
       .prefetch = cache::Prefetch::stream},
  };
}

struct PlanRow {
  const char* tree;
  bool wht;
  bool twiddles;
  std::size_t cache;
  std::array<std::uint64_t, 5> stats;  ///< accesses, misses, compulsory, conflict, evictions
};

// clang-format off
const PlanRow kPlanRows[] = {
    {"16", false, true, 0, {32, 4, 4, 0, 0}},
    {"16", false, true, 1, {32, 8, 8, 0, 0}},
    {"16", false, true, 2, {32, 4, 4, 0, 0}},
    {"16", false, true, 3, {32, 3, 3, 0, 0}},
    {"ct(4,8)", false, true, 0, {319, 22, 22, 0, 0}},
    {"ct(4,8)", false, true, 1, {319, 42, 42, 0, 0}},
    {"ct(4,8)", false, true, 2, {319, 22, 22, 0, 0}},
    {"ct(4,8)", false, true, 3, {319, 16, 16, 0, 0}},
    {"ct(16,16)", false, true, 0, {2723, 173, 173, 0, 0}},
    {"ct(16,16)", false, true, 1, {2723, 324, 324, 0, 0}},
    {"ct(16,16)", false, true, 2, {2723, 173, 173, 0, 0}},
    {"ct(16,16)", false, true, 3, {2723, 113, 113, 0, 0}},
    {"ctddl(16,16)", false, true, 0, {3747, 173, 173, 0, 0}},
    {"ctddl(16,16)", false, true, 1, {3747, 324, 324, 0, 0}},
    {"ctddl(16,16)", false, true, 2, {3747, 173, 173, 0, 0}},
    {"ctddl(16,16)", false, true, 3, {3747, 173, 173, 0, 0}},
    {"ctddlf(16,16)", false, true, 0, {3297, 173, 173, 0, 0}},
    {"ctddlf(16,16)", false, true, 1, {3297, 324, 324, 0, 0}},
    {"ctddlf(16,16)", false, true, 2, {3297, 173, 173, 0, 0}},
    {"ctddlf(16,16)", false, true, 3, {3297, 173, 173, 0, 0}},
    {"ct(ct(4,4),16)", false, true, 0, {4691, 176, 176, 0, 0}},
    {"ct(ct(4,4),16)", false, true, 1, {4691, 329, 329, 0, 0}},
    {"ct(ct(4,4),16)", false, true, 2, {4691, 176, 176, 0, 0}},
    {"ct(ct(4,4),16)", false, true, 3, {4691, 131, 131, 0, 0}},
    {"ct(32,ct(32,16))", false, true, 0, {321539, 11840, 11552, 288, 3648}},
    {"ct(32,ct(32,16))", false, true, 1, {321539, 112834, 21724, 91110, 111810}},
    {"ct(32,ct(32,16))", false, true, 2, {321539, 27616, 11552, 16064, 23520}},
    {"ct(32,ct(32,16))", false, true, 3, {321539, 4257, 4128, 129, 4145}},
    {"ctddl(ct(16,16),ct(16,16))", false, true, 0, {2113539, 348505, 43522, 304983, 340313}},
    {"ctddl(ct(16,16),ct(16,16))", false, true, 1, {2113539, 553672, 80386, 473286, 552648}},
    {"ctddl(ct(16,16),ct(16,16))", false, true, 2, {2113539, 218238, 43522, 174716, 214142}},
    {"ctddl(ct(16,16),ct(16,16))", false, true, 3, {2113539, 32353, 11519, 20834, 198135}},
    {"ctddlf(ct(16,16),ct(16,16))", false, true, 0, {1983489, 384864, 43522, 341342, 376672}},
    {"ctddlf(ct(16,16),ct(16,16))", false, true, 1, {1983489, 521220, 80386, 440834, 520196}},
    {"ctddlf(ct(16,16),ct(16,16))", false, true, 2, {1983489, 252373, 43522, 208851, 248277}},
    {"ctddlf(ct(16,16),ct(16,16))", false, true, 3, {1983489, 32992, 11520, 21472, 234686}},
    {"ctddl(ct(16,16),32)", false, false, 0, {177666, 4160, 4160, 0, 0}},
    {"ctddl(ct(16,16),32)", false, false, 1, {177666, 45056, 8320, 36736, 44032}},
    {"ctddl(ct(16,16),32)", false, false, 2, {177666, 4416, 4160, 256, 320}},
    {"ctddl(ct(16,16),32)", false, false, 3, {177666, 719, 719, 0, 0}},
    {"st(1024)", false, true, 0, {21503, 640, 640, 0, 0}},
    {"st(1024)", false, true, 1, {21503, 2057, 1280, 777, 1033}},
    {"st(1024)", false, true, 2, {21503, 640, 640, 0, 0}},
    {"st(1024)", false, true, 3, {21503, 639, 639, 0, 0}},
    {"ct(st(64),16)", false, true, 0, {26371, 722, 722, 0, 0}},
    {"ct(st(64),16)", false, true, 1, {26371, 1518, 1369, 149, 494}},
    {"ct(st(64),16)", false, true, 2, {26371, 722, 722, 0, 0}},
    {"ct(st(64),16)", false, true, 3, {26371, 705, 705, 0, 0}},
    {"ctddl(st(256),st(256))", false, true, 0, {2947075, 419667, 43509, 376158, 411475}},
    {"ctddl(st(256),st(256))", false, true, 1, {2947075, 553038, 80382, 472656, 552014}},
    {"ctddl(st(256),st(256))", false, true, 2, {2947075, 218030, 43509, 174521, 213934}},
    {"ctddl(st(256),st(256))", false, true, 3, {2947075, 61958, 11508, 50450, 198084}},
    {"ctddlf(ct(8,16),st(512))", false, true, 0, {2650881, 433333, 45399, 387934, 425141}},
    {"ctddlf(ct(8,16),st(512))", false, true, 1, {2650881, 549616, 84585, 465031, 548592}},
    {"ctddlf(ct(8,16),st(512))", false, true, 2, {2650881, 252905, 45399, 207506, 248809}},
    {"ctddlf(ct(8,16),st(512))", false, true, 3, {2650881, 58034, 14284, 43750, 236035}},
    {"ctddl(24,48)", false, true, 0, {17067, 796, 796, 0, 0}},
    {"ctddl(24,48)", false, true, 1, {17067, 2949, 1502, 1447, 1925}},
    {"ctddl(24,48)", false, true, 2, {17067, 796, 796, 0, 0}},
    {"ctddl(24,48)", false, true, 3, {17067, 776, 776, 0, 0}},
    {"ct(48,24)", false, true, 0, {12459, 796, 796, 0, 0}},
    {"ct(48,24)", false, true, 1, {12459, 1892, 1502, 390, 868}},
    {"ct(48,24)", false, true, 2, {12459, 796, 796, 0, 0}},
    {"ct(48,24)", false, true, 3, {12459, 494, 494, 0, 0}},
    {"ctddlf(24,ct(8,6))", false, true, 0, {24337, 805, 805, 0, 0}},
    {"ctddlf(24,ct(8,6))", false, true, 1, {24337, 3254, 1517, 1737, 2230}},
    {"ctddlf(24,ct(8,6))", false, true, 2, {24337, 805, 805, 0, 0}},
    {"ctddlf(24,ct(8,6))", false, true, 3, {24337, 780, 780, 0, 0}},
    {"ctddl(ct(3,8),40)", false, true, 0, {21651, 681, 681, 0, 0}},
    {"ctddl(ct(3,8),40)", false, true, 1, {21651, 1632, 1274, 358, 613}},
    {"ctddl(ct(3,8),40)", false, true, 2, {21651, 681, 681, 0, 0}},
    {"ctddl(ct(3,8),40)", false, true, 3, {21651, 681, 681, 0, 0}},
    {"ct(ctddl(24,24),16)", false, true, 0, {217155, 7239, 6539, 700, 1400}},
    {"ct(ctddl(24,24),16)", false, true, 1, {217155, 83574, 12337, 71237, 82550}},
    {"ct(ctddl(24,24),16)", false, true, 2, {217155, 9490, 6539, 2951, 5394}},
    {"ct(ctddl(24,24),16)", false, true, 3, {217155, 1999, 1999, 0, 0}},
    {"ctddl(ct(24,40),24)", false, true, 0, {545475, 42546, 16531, 26015, 34354}},
    {"ctddl(ct(24,40),24)", false, true, 1, {545475, 162178, 31186, 130992, 161154}},
    {"ctddl(ct(24,40),24)", false, true, 2, {545475, 69473, 16531, 52942, 65377}},
    {"ctddl(ct(24,40),24)", false, true, 3, {545475, 7653, 4061, 3592, 44823}},
    {"ct(8,8)", true, true, 0, {256, 8, 8, 0, 0}},
    {"ct(8,8)", true, true, 1, {256, 16, 16, 0, 0}},
    {"ct(8,8)", true, true, 2, {256, 8, 8, 0, 0}},
    {"ct(8,8)", true, true, 3, {256, 3, 3, 0, 0}},
    {"ctddl(8,8)", true, true, 0, {512, 16, 16, 0, 0}},
    {"ctddl(8,8)", true, true, 1, {512, 32, 32, 0, 0}},
    {"ctddl(8,8)", true, true, 2, {512, 16, 16, 0, 0}},
    {"ctddl(8,8)", true, true, 3, {512, 9, 9, 0, 0}},
    {"ctddl(64,ct(32,32))", true, true, 0, {655360, 36928, 16384, 20544, 28736}},
    {"ctddl(64,ct(32,32))", true, true, 1, {655360, 196608, 32768, 163840, 195584}},
    {"ctddl(64,ct(32,32))", true, true, 2, {655360, 49152, 16384, 32768, 45056}},
    {"ctddl(64,ct(32,32))", true, true, 3, {655360, 14524, 8018, 6506, 32696}},
    {"ct(ct(16,16),ctddl(16,16))", true, true, 0, {786432, 8448, 8224, 224, 256}},
    {"ct(ct(16,16),ctddl(16,16))", true, true, 1, {786432, 213056, 16448, 196608, 212032}},
    {"ct(ct(16,16),ctddl(16,16))", true, true, 2, {786432, 204864, 8224, 196640, 200768}},
    {"ct(ct(16,16),ctddl(16,16))", true, true, 3, {786432, 4136, 6, 4130, 4914}},
    {"ctddl(24,40)", true, true, 0, {7680, 240, 240, 0, 0}},
    {"ctddl(24,40)", true, true, 1, {7680, 480, 480, 0, 0}},
    {"ctddl(24,40)", true, true, 2, {7680, 240, 240, 0, 0}},
    {"ctddl(24,40)", true, true, 3, {7680, 121, 121, 0, 0}},
};
// clang-format on

TEST(HandWalkerTable, WholePlanStatsAreExact) {
  const auto caches = table_caches();
  for (const PlanRow& row : kPlanRows) {
    cache::Cache cache(caches[row.cache]);
    const auto tree = plan::parse_tree(row.tree);
    if (row.wht) {
      trace_wht(*tree, cache);
    } else {
      trace_fft(*tree, cache, {.elem_bytes = sizeof(cplx), .include_twiddles = row.twiddles});
    }
    const auto& s = cache.stats();
    const std::array<std::uint64_t, 5> got = {s.accesses, s.misses, s.compulsory_misses,
                                              s.conflict_misses, s.evictions};
    EXPECT_EQ(got, row.stats) << (row.wht ? "wht " : "fft ") << row.tree << " cache "
                              << row.cache << (row.twiddles ? "" : " no twiddles");
  }
}

/// Every key kind over sides {4, 16, 24, 32, 48, 64} and strides {1, 8, 64},
/// in the order of kOracleCosts.
std::vector<plan::CostKey> table_keys() {
  const index_t sides[] = {4, 16, 24, 32, 48, 64};
  const index_t strides[] = {1, 8, 64};
  std::vector<plan::CostKey> keys;
  for (const char* kind : {"dft_leaf", "wht_leaf", "stockham"}) {
    for (index_t a : sides) {
      for (index_t s : strides) keys.push_back({kind, a, s, 0});
    }
  }
  for (index_t a : sides) {
    for (index_t b : sides) keys.push_back({"tw_cols", a * b, b, 0});
  }
  for (const char* kind : {"tw_rows", "perm"}) {
    for (index_t a : sides) {
      for (index_t b : sides) {
        for (index_t s : strides) keys.push_back({kind, a * b, b, s});
      }
    }
  }
  for (const char* kind : {"reorg", "reorg_g", "wht_reorg", "fused_tws"}) {
    for (index_t a : sides) {
      for (index_t b : sides) {
        for (index_t s : strides) keys.push_back({kind, a, b, s});
      }
    }
  }
  return keys;
}

// clang-format off
const double kOracleCosts[] = {
    38, 18.3125, 38, 152, 53.5625, 152, 228, 77.0625, 228, 304, 100.5625, 304, 456, 147.5625, 456,
    608, 194.5625, 608, 23, 13.15625, 23, 92, 42.78125, 92, 138, 62.53125, 138, 184, 82.28125, 184,
    276, 121.78125, 276, 368, 161.28125, 368, 109, 245, 245, 443, 987, 987, 648, 1464, 1464, 1015,
    2103, 2103, 1490, 3122, 3122, 2031, 4207, 4207, 207, 945, 1437, 1929, 2913, 3897, 855, 3825,
    6075, 7995, 12255, 16455, 1287, 6015, 8787, 12309, 18303, 24867, 1719, 7875, 12249, 15693,
    24621, 32739, 2583, 12015, 18123, 24501, 35457, 49593, 3447, 16095, 24567, 32499, 49473, 63237,
    207, 387, 387, 855, 1845, 1845, 1287, 2817, 2817, 1719, 3789, 3789, 2583, 5733, 5733, 3447,
    7677, 7677, 945, 1845, 1845, 3825, 8775, 8775, 6015, 13665, 13665, 7875, 18225, 18225, 12015,
    27765, 27825, 16095, 37245, 37425, 1437, 2817, 2817, 6075, 13665, 13665, 8787, 20517, 20547,
    12249, 28119, 28179, 18123, 42273, 42543, 24567, 56997, 57507, 1929, 3789, 3789, 7995, 18225,
    18225, 12309, 28119, 28179, 15693, 37083, 37233, 24501, 57051, 57501, 32499, 76209, 77109, 2913,
    5733, 5733, 12255, 27765, 27855, 18303, 42273, 42513, 24621, 57051, 57531, 35457, 84807, 86037,
    49473, 115743, 117933, 3897, 7677, 7677, 16455, 37245, 37395, 24867, 56997, 57447, 32739, 76209,
    77019, 49593, 115743, 117783, 63237, 152067, 155397, 304, 664, 664, 1216, 2656, 2656, 1824,
    3984, 3984, 2432, 5312, 5312, 3648, 7968, 7968, 4864, 10624, 10624, 1216, 2656, 2656, 4864,
    10624, 10624, 7296, 15936, 15936, 9728, 21248, 21728, 14592, 31872, 43122, 19456, 42496, 73726,
    1824, 3984, 3984, 7296, 15936, 15936, 10944, 23904, 27684, 14592, 31872, 47832, 21888, 47808,
    74418, 29184, 63744, 110574, 2432, 5312, 5312, 9728, 21248, 21728, 14592, 31872, 45462, 19456,
    42496, 73726, 29184, 63744, 105774, 38912, 84992, 147422, 3648, 7968, 7968, 14592, 31872, 47802,
    21888, 47808, 77958, 29184, 63744, 110574, 43776, 95616, 165816, 58368, 127488, 221118, 4864,
    10624, 10624, 19456, 42496, 73726, 29184, 63744, 105774, 38912, 84992, 147422, 58368, 127488,
    221118, 77824, 194674, 294814, 304, 664, 664, 1216, 2656, 2656, 1824, 3984, 3984, 2432, 5312,
    5312, 3648, 7968, 7968, 4864, 10624, 10624, 1216, 2656, 2656, 4864, 10624, 10624, 7296, 15936,
    15936, 9728, 21248, 21728, 14592, 31872, 47952, 19456, 42496, 73726, 1824, 3984, 3984, 7296,
    15936, 15936, 10944, 23904, 28284, 14592, 31872, 47952, 21888, 47808, 82908, 29184, 63744,
    110574, 2432, 5312, 5312, 9728, 21248, 21728, 14592, 31872, 47952, 19456, 42496, 73726, 29184,
    63744, 110574, 38912, 84992, 147422, 3648, 7968, 7968, 14592, 31872, 47952, 21888, 47808, 82908,
    29184, 63744, 110634, 43776, 95616, 165846, 58368, 127488, 221178, 4864, 10624, 10624, 19456,
    42496, 74176, 29184, 63744, 111264, 38912, 84992, 148352, 58368, 127488, 222528, 77824, 200704,
    296704, 272, 632, 632, 1088, 2528, 2528, 1632, 3792, 3792, 2176, 5056, 5056, 3264, 7584, 7584,
    4352, 10112, 10112, 1088, 2528, 2528, 4352, 10112, 10112, 6528, 15168, 15168, 8704, 20224,
    20224, 13056, 30336, 30336, 17408, 40448, 40448, 1632, 3792, 3792, 6528, 15168, 15168, 9792,
    22752, 22752, 13056, 30336, 30336, 19584, 45504, 45504, 26112, 60672, 60672, 2176, 5056, 5056,
    8704, 20224, 20224, 13056, 30336, 30336, 17408, 40448, 40448, 26112, 60672, 60672, 34816, 80896,
    80896, 3264, 7584, 7584, 13056, 30336, 30336, 19584, 45504, 45504, 26112, 60672, 60672, 39168,
    91008, 91008, 52224, 121344, 121344, 4352, 10112, 10112, 17408, 40448, 40448, 26112, 60672,
    60672, 34816, 80896, 80896, 52224, 121344, 121344, 69632, 161792, 161792, 184, 604, 604, 736,
    2416, 2416, 1104, 3624, 3624, 1472, 4832, 4832, 2208, 7248, 7248, 2944, 9664, 9664, 736, 2416,
    2416, 2944, 9664, 9664, 4416, 14496, 14496, 5888, 19328, 19328, 8832, 28992, 28992, 11776,
    38656, 39616, 1104, 3624, 3624, 4416, 14496, 14496, 6624, 21744, 21744, 8832, 28992, 28992,
    13248, 43488, 52248, 17664, 57984, 90144, 1472, 4832, 4832, 5888, 19328, 19328, 8832, 28992,
    28992, 11776, 38656, 39616, 17664, 57984, 90144, 23552, 77312, 139742, 2208, 7248, 7248, 8832,
    28992, 28992, 13248, 43488, 52248, 17664, 57984, 90144, 26496, 86976, 157176, 35328, 115968,
    209658, 2944, 9664, 9664, 11776, 38656, 39616, 17664, 57984, 90144, 23552, 77312, 140672, 35328,
    115968, 211008, 47104, 154624, 281344, 371, 731, 731, 1493, 2933, 2933, 2241, 4401, 4401, 2989,
    5869, 5869, 4485, 8805, 8805, 5981, 11741, 11741, 1493, 2933, 2933, 5927, 11687, 11687, 9153,
    17793, 17793, 12049, 23569, 23629, 18261, 35541, 35721, 24413, 47453, 47573, 2241, 4401, 4401,
    9153, 17793, 17793, 13381, 26341, 26371, 18359, 35639, 35759, 27265, 53185, 53425, 36741, 71301,
    71751, 2989, 5869, 5869, 12049, 23569, 23689, 18359, 35639, 35699, 23739, 46779, 47049, 36539,
    71099, 71699, 48529, 94609, 95209, 4485, 8805, 8805, 18261, 35541, 35571, 27265, 53185, 53545,
    36539, 71099, 71219, 53287, 105127, 106177, 73215, 142335, 142515, 5981, 11741, 11741, 24413,
    47453, 47933, 36741, 71301, 72471, 48529, 94609, 95569, 73215, 142335, 144825, 94691, 191801,
    188771,
};
// clang-format on

TEST(HandWalkerTable, OracleCostsAreExact) {
  const auto keys = table_keys();
  ASSERT_EQ(keys.size(), std::size(kOracleCosts));
  const auto oracle = simulated_cost_oracle({});
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const plan::CostKey& k = keys[i];
    EXPECT_EQ(oracle(k), kOracleCosts[i]) << k.kind << "(" << k.a << ", " << k.b << ", " << k.c
                                          << ")";
  }
}

}  // namespace
}  // namespace ddl::sim
