// Property suite for the static cache-miss analyzer (verify::cachepred).
//
// The central contract: predict_pass runs a pass through cache::Cache and
// closes its outer loop in constant time once the cache reaches a shifted
// steady state. That closure must be invisible: for EVERY pass the plan
// emitter produces and EVERY tested geometry, with split_remiss off and on,
// the prediction must equal a replay of the same pass through the same
// cache — exactly, counter by counter, prefetchers and evictions included.
//
// On top of that: the per-stage cold sum bounding the execution-order
// whole-plan trace (sim::trace_fft walks these same passes), footprint
// coverage, the planner's cold-start model and its exact per-primitive miss
// table, and coefficient-fit recovery on a synthetic cost database. The
// exact numbers of the whole-plan walk and the simulated oracle are pinned
// in test_sim.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "ddl/cachesim/cache.hpp"
#include "ddl/fft/planner.hpp"
#include "ddl/plan/grammar.hpp"
#include "ddl/sim/trace.hpp"
#include "ddl/verify/cachepred.hpp"
#include "ddl/verify/plan_verify.hpp"
#include "ddl/wht/planner.hpp"

namespace ddl::verify::cachepred {
namespace {

struct NamedConfig {
  std::string name;
  cache::CacheConfig cfg;
};

/// Geometries the predict == replay property is enforced over, each with
/// split_remiss off (the planner's cold-start path) and on (what
/// `ddlfft analyze-plan` prints).
std::vector<NamedConfig> property_configs() {
  std::vector<NamedConfig> out;
  auto add = [&out](const std::string& name, cache::CacheConfig cfg) {
    out.push_back({name, cfg});
    cfg.split_remiss = true;
    out.push_back({name + "-split", cfg});
  };
  add("tiny-dm", {.size_bytes = 512, .line_bytes = 64, .associativity = 1});
  add("paper-dm", {.size_bytes = 64 * 1024, .line_bytes = 64, .associativity = 1});
  add("l1-2way", {.size_bytes = 8 * 1024, .line_bytes = 64, .associativity = 2});
  add("l1-8way", {.size_bytes = 32 * 1024, .line_bytes = 64, .associativity = 8});
  add("fifo-2way",
      {.size_bytes = 4 * 1024, .line_bytes = 64, .associativity = 2,
       .replacement = cache::Replacement::fifo});
  add("dm-nextline", {.size_bytes = 16 * 1024, .line_bytes = 64, .associativity = 1,
                      .prefetch = cache::Prefetch::next_line});
  add("8way-stream", {.size_bytes = 32 * 1024, .line_bytes = 64, .associativity = 8,
                      .prefetch = cache::Prefetch::stream});
  return out;
}

/// Plan shapes the sweep covers, per transform size.
std::vector<std::pair<std::string, plan::TreePtr>> property_trees(index_t n) {
  std::vector<std::pair<std::string, plan::TreePtr>> out;
  out.emplace_back("rightmost", fft::rightmost_tree(n, 32));
  out.emplace_back("balanced", fft::balanced_tree(n, 32));
  out.emplace_back("balanced-ddl", fft::balanced_tree(n, 32, 256));
  if (n == 256) out.emplace_back("fused", plan::parse_tree("ctddlf(16,16)"));
  if (n == 1024) out.emplace_back("fused", plan::parse_tree("ctddlf(32,32)"));
  if (n == 4096) out.emplace_back("fused", plan::parse_tree("ctddlf(16,ct(16,16))"));
  out.emplace_back("stockham", plan::parse_tree("st(" + std::to_string(n) + ")"));
  if (n == 1024) out.emplace_back("embedded-stockham", plan::parse_tree("ct(st(64),16)"));
  return out;
}

void expect_level_eq(const cache::CacheStats& p, const cache::CacheStats& s,
                     const std::string& label) {
  EXPECT_EQ(p.accesses, s.accesses) << label;
  EXPECT_EQ(p.reads, s.reads) << label;
  EXPECT_EQ(p.writes, s.writes) << label;
  EXPECT_EQ(p.misses, s.misses) << label;
  EXPECT_EQ(p.compulsory_misses, s.compulsory_misses) << label;
  EXPECT_EQ(p.capacity_misses, s.capacity_misses) << label;
  EXPECT_EQ(p.conflict_misses, s.conflict_misses) << label;
  EXPECT_EQ(p.evictions, s.evictions) << label;
  EXPECT_EQ(p.prefetch_fills, s.prefetch_fills) << label;
  EXPECT_EQ(p.prefetch_hits, s.prefetch_hits) << label;
}

/// The core property: symbolic prediction == trace replay, exactly.
void expect_predict_equals_replay(const AccessPass& pass, const cache::CacheConfig& l1,
                                  const cache::CacheConfig* l2, const std::string& label) {
  const PassPrediction pred = predict_pass(pass, l1, l2);

  cache::Cache c1(l1);
  if (l2 != nullptr) {
    cache::Cache c2(*l2);
    sim::replay_pass(pass, c1, &c2);
    expect_level_eq(pred.l2, c2.stats(), label + " [L2]");
  } else {
    sim::replay_pass(pass, c1, nullptr);
  }
  expect_level_eq(pred.l1, c1.stats(), label + " [L1]");
  EXPECT_EQ(pred.bytes_moved, pass.bytes_touched()) << label;
}

TEST(PredictVsReplay, ExactForEveryPassShapeAndGeometry) {
  const auto configs = property_configs();
  for (const index_t n : {index_t{256}, index_t{1024}, index_t{4096}}) {
    for (const auto& [tree_name, tree] : property_trees(n)) {
      const auto passes = enumerate_passes(*tree);
      ASSERT_FALSE(passes.empty()) << tree_name;
      for (const auto& cfg : configs) {
        for (const auto& pass : passes) {
          const std::string label = tree_name + "/" + std::to_string(n) + "/" + cfg.name +
                                    "/" + pass.node_path + ":" + pass.op;
          expect_predict_equals_replay(pass, cfg.cfg, nullptr, label);
        }
      }
    }
  }
}

TEST(PredictVsReplay, ExactThroughTwoLevelHierarchy) {
  // L2 sees exactly the L1 miss stream; the prediction must track both.
  for (const bool split : {false, true}) {
    const cache::CacheConfig l1{.size_bytes = 2 * 1024, .line_bytes = 64, .associativity = 1,
                                .split_remiss = split};
    const cache::CacheConfig l2{.size_bytes = 64 * 1024, .line_bytes = 64, .associativity = 1,
                                .split_remiss = split};
    for (const index_t n : {index_t{1024}, index_t{4096}}) {
      for (const auto& [tree_name, tree] : property_trees(n)) {
        for (const auto& pass : enumerate_passes(*tree)) {
          const std::string label = tree_name + "/" + std::to_string(n) + "/" + pass.node_path +
                                    ":" + pass.op + (split ? " split" : "");
          expect_predict_equals_replay(pass, l1, &l2, label);
        }
      }
    }
  }
}

TEST(PredictVsReplay, ExactOnRaggedTilings) {
  // Sides over 16 that 16 does not divide split a transpose into its full
  // column blocks and the narrow last one, each tile column a sweep.
  const auto configs = property_configs();
  for (const char* grammar : {"ctddl(24,48)", "ct(48,24)", "ctddlf(ct(3,8),40)"}) {
    const auto tree = plan::parse_tree(grammar);
    for (const auto& cfg : configs) {
      for (const auto& pass : enumerate_passes(*tree)) {
        expect_predict_equals_replay(pass, cfg.cfg, nullptr,
                                     std::string(grammar) + "/" + cfg.name + "/" +
                                         pass.node_path + ":" + pass.op);
      }
    }
  }
}

TEST(PredictVsReplay, WhtPassesMatchToo) {
  AnalyzeOptions opts;
  opts.transform = Transform::wht;
  for (const bool split : {false, true}) {
    const cache::CacheConfig cfg{.size_bytes = 1024, .line_bytes = 64, .associativity = 1,
                                 .split_remiss = split};
    for (const index_t n : {index_t{1024}, index_t{4096}}) {
      const auto tree = wht::balanced_wht_tree(n, 64, 512);
      for (const auto& pass : enumerate_passes(*tree, opts)) {
        expect_predict_equals_replay(
            pass, cfg, nullptr,
            "wht/" + std::to_string(n) + "/" + pass.op + (split ? " split" : ""));
      }
    }
  }
}

TEST(Closure, FiresOnLeafSweeps) {
  // Sanity that the closure actually engages somewhere (otherwise the
  // predict == replay equalities do not test it): a long run of identical
  // shifted leaf sweeps over a no-prefetch cache is its home turf.
  const auto tree = fft::rightmost_tree(4096, 32);
  const cache::CacheConfig dm{.size_bytes = 512, .line_bytes = 64, .associativity = 1};
  bool any_closed = false;
  for (const auto& pass : enumerate_passes(*tree)) {
    any_closed = any_closed || predict_pass(pass, dm).closed_form;
  }
  EXPECT_TRUE(any_closed);
}

TEST(WholePlan, ColdStageSumBoundsTheWarmTrace) {
  // Per-stage predictions assume each stage starts cold; a warm LRU cache
  // can only hit more (stack property), so the cold sum is an upper bound
  // on the warm whole-plan miss count — and a reasonably tight one (the
  // documented tolerance band, docs/CACHEMODEL.md).
  for (const index_t n : {index_t{1024}, index_t{4096}}) {
    for (const auto& [tree_name, tree] : property_trees(n)) {
      const cache::CacheConfig cfg{.size_bytes = 16 * 1024, .line_bytes = 64,
                                   .associativity = 1};
      cache::Cache warm(cfg);
      sim::trace_fft(*tree, warm);

      AnalyzeOptions opts;
      opts.l1 = cfg;
      opts.l2.size_bytes = 0;
      const CacheReport rep = analyze_plan(*tree, opts);
      EXPECT_GE(rep.total_l1.misses, warm.stats().misses) << tree_name << " n=" << n;
      // Band: inter-stage reuse cannot be the dominant effect for
      // working sets exceeding the cache; the cold-sum stays within 3x.
      EXPECT_LE(rep.total_l1.misses, 3 * warm.stats().misses + 64)
          << tree_name << " n=" << n;
    }
  }
}

TEST(CoverageCheck, EveryFootprintStageAccountedFor) {
  for (const index_t n : {index_t{256}, index_t{1024}, index_t{4096}}) {
    for (const auto& [tree_name, tree] : property_trees(n)) {
      const CacheReport rep = analyze_plan(*tree);
      EXPECT_TRUE(rep.covered()) << tree_name << " n=" << n;
      for (const auto& c : rep.coverage) {
        EXPECT_NE(c.status, Coverage::uncovered)
            << tree_name << " n=" << n << " " << c.node_path << ":" << c.op;
      }
    }
  }
  AnalyzeOptions wht_opts;
  wht_opts.transform = Transform::wht;
  const auto wht_tree = wht::balanced_wht_tree(2048, 64, 512);
  EXPECT_TRUE(analyze_plan(*wht_tree, wht_opts).covered());
}

TEST(ObsStageCoverage, EveryStageHasAModelDisposition) {
  for (int i = 0; i < static_cast<int>(obs::Stage::count_); ++i) {
    const char* m = obs_stage_model(static_cast<obs::Stage>(i));
    ASSERT_NE(m, nullptr) << "stage " << i;
    EXPECT_NE(std::string(m), "") << "stage " << i;
  }
}

// ---------------------------------------------------------------------------
// Planning-oracle layer
// ---------------------------------------------------------------------------

TEST(Primitives, StridedLeafCostsMoreAtDirectMappedL2) {
  // The paper's core observation, reproduced statically: large power-of-two
  // strides thrash a direct-mapped cache, unit stride streams through it.
  const cache::CacheConfig l1{.size_bytes = 32 * 1024, .line_bytes = 64, .associativity = 8};
  const cache::CacheConfig l2{.size_bytes = 512 * 1024, .line_bytes = 64, .associativity = 1};
  const auto unit = predict_primitive({"dft_leaf", 64, 1, 0, ""}, l1, l2);
  const auto strided = predict_primitive({"dft_leaf", 64, 4096, 0, ""}, l1, l2);
  EXPECT_GT(strided.l2_misses, unit.l2_misses);
  EXPECT_GT(strided.l1_misses, unit.l1_misses);
}

TEST(Primitives, EveryPlannerKeyKindHasPassesAndFlops) {
  const std::vector<plan::CostKey> keys = {
      {"dft_leaf", 16, 64, 0, ""},     {"wht_leaf", 16, 64, 0, ""},
      {"tw_rows", 1024, 32, 4},        {"tw_cols", 1024, 32, 0},
      {"perm", 1024, 32, 2},           {"reorg", 32, 32, 4},
      {"reorg_g", 32, 32, 4},          {"fused_tws", 32, 32, 4, ""},
      {"stockham", 256, 1, 0},         {"stockham", 256, 8, 0},
      {"wht_reorg", 32, 32, 4},
  };
  const cache::CacheConfig l1{.size_bytes = 32 * 1024, .line_bytes = 64, .associativity = 8};
  const cache::CacheConfig l2{.size_bytes = 512 * 1024, .line_bytes = 64, .associativity = 1};
  for (const auto& key : keys) {
    EXPECT_FALSE(primitive_passes(key).empty()) << key.kind;
    EXPECT_GT(primitive_flops(key), 0.0) << key.kind;
    const auto pred = predict_primitive(key, l1, l2);
    EXPECT_GT(pred.l1_misses, 0u) << key.kind;
    CostCoefficients co;
    EXPECT_GT(model_cost(key, co, l1, l2), 0.0) << key.kind;
  }
}

/// Every key kind over sides {4, 16, 24, 64, 256} and strides {1, 8, 64},
/// in the order of kPrimitiveMisses.
std::vector<plan::CostKey> primitive_table_keys() {
  const index_t sides[] = {4, 16, 24, 64, 256};
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

// (l1_misses, l2_misses) of predict_primitive at CacheModelOptions' default
// geometry, recorded before the evaluator ran on cache::Cache: the numbers
// every cold-start plan is built from.
// clang-format off
const std::uint64_t kPrimitiveMisses[][2] = {
    {1, 1}, {0, 0}, {1, 1}, {4, 4}, {0, 0}, {4, 4}, {6, 6}, {0, 0}, {6, 6}, {16, 16}, {2, 2},
    {128, 16}, {64, 64}, {8, 8}, {512, 64}, {0, 0}, {0, 0}, {0, 0}, {2, 2}, {0, 0}, {2, 2}, {3, 3},
    {0, 0}, {3, 3}, {8, 8}, {1, 1}, {8, 8}, {32, 32}, {4, 4}, {512, 32}, {6, 6}, {16, 16}, {16, 16},
    {39, 39}, {79, 79}, {79, 79}, {54, 54}, {114, 114}, {114, 114}, {223, 223}, {383, 383},
    {383, 383}, {1151, 1151}, {1791, 1791}, {1791, 1791}, {6, 6}, {27, 27}, {41, 41}, {111, 111},
    {447, 447}, {24, 24}, {105, 105}, {168, 168}, {454, 454}, {2523, 1829}, {36, 36}, {166, 166},
    {240, 240}, {684, 684}, {4586, 2758}, {96, 96}, {442, 442}, {674, 674}, {2412, 1711},
    {16045, 7249}, {384, 384}, {2452, 1769}, {4565, 2700}, {16292, 7201}, {76244, 35735}, {6, 6},
    {12, 12}, {12, 12}, {24, 24}, {57, 57}, {57, 57}, {36, 36}, {87, 87}, {87, 87}, {96, 96},
    {237, 237}, {240, 237}, {384, 384}, {997, 957}, {969, 960}, {27, 27}, {57, 57}, {57, 57},
    {105, 105}, {270, 270}, {273, 270}, {166, 166}, {421, 421}, {427, 421}, {442, 442},
    {1174, 1147}, {1181, 1153}, {2452, 1769}, {6138, 4634}, {5051, 4752}, {41, 41}, {87, 87},
    {87, 87}, {168, 168}, {421, 421}, {427, 421}, {240, 240}, {632, 631}, {643, 631}, {674, 674},
    {1884, 1755}, {1817, 1772}, {4565, 2700}, {9880, 7343}, {8479, 7327}, {111, 111}, {237, 237},
    {238, 237}, {454, 454}, {1178, 1147}, {1175, 1152}, {684, 684}, {1887, 1755}, {1809, 1770},
    {2412, 1711}, {5849, 4672}, {5152, 4783}, {16292, 7201}, {29471, 21318}, {27313, 20108},
    {447, 447}, {983, 957}, {966, 960}, {2523, 1829}, {5722, 4634}, {5112, 4737}, {4586, 2758},
    {9408, 7297}, {8535, 7309}, {16045, 7249}, {28812, 21319}, {27304, 20060}, {76244, 35735},
    {126365, 97982}, {123359, 85192}, {16, 16}, {40, 40}, {40, 40}, {64, 64}, {160, 160},
    {160, 160}, {96, 96}, {240, 240}, {240, 240}, {256, 256}, {640, 640}, {640, 640}, {1024, 1024},
    {2560, 2560}, {2560, 2560}, {64, 64}, {160, 160}, {160, 160}, {256, 256}, {640, 640},
    {640, 640}, {384, 384}, {960, 960}, {960, 960}, {1024, 1024}, {2560, 2560}, {2560, 2560},
    {7168, 4096}, {10240, 10240}, {10240, 10240}, {96, 96}, {240, 240}, {240, 240}, {384, 384},
    {960, 960}, {960, 960}, {576, 576}, {1440, 1440}, {1440, 1440}, {1536, 1536}, {3840, 3840},
    {3840, 3840}, {9282, 6144}, {15360, 15360}, {15360, 15360}, {256, 256}, {640, 640}, {640, 640},
    {1024, 1024}, {2560, 2560}, {2560, 2560}, {1536, 1536}, {3840, 3840}, {3840, 3840},
    {4096, 4096}, {10240, 10240}, {10240, 10240}, {28672, 16384}, {40960, 40960}, {40960, 40960},
    {1024, 1024}, {2560, 2560}, {2560, 2560}, {4096, 4096}, {10240, 10240}, {10240, 10240},
    {6144, 6144}, {15360, 15360}, {15360, 15360}, {16384, 16384}, {40960, 40960}, {40960, 40960},
    {114688, 65792}, {163840, 163840}, {163840, 163840}, {16, 16}, {40, 40}, {40, 40}, {64, 64},
    {160, 160}, {160, 160}, {96, 96}, {240, 240}, {240, 240}, {256, 256}, {640, 640}, {640, 640},
    {1024, 1024}, {2560, 2560}, {2560, 2560}, {64, 64}, {160, 160}, {160, 160}, {256, 256},
    {640, 640}, {640, 640}, {384, 384}, {960, 960}, {960, 960}, {1024, 1024}, {2560, 2560},
    {2560, 2560}, {10240, 4096}, {10240, 10240}, {10240, 10240}, {96, 96}, {240, 240}, {240, 240},
    {384, 384}, {960, 960}, {960, 960}, {576, 576}, {1440, 1440}, {1440, 1440}, {1536, 1536},
    {3840, 3840}, {3840, 3840}, {12420, 6144}, {15360, 15360}, {15360, 15360}, {256, 256},
    {640, 640}, {640, 640}, {1024, 1024}, {2560, 2560}, {2560, 2560}, {1536, 1536}, {3840, 3840},
    {3840, 3840}, {4096, 4096}, {10240, 10240}, {10240, 10240}, {40960, 16384}, {40960, 40960},
    {40960, 40960}, {1024, 1024}, {2560, 2560}, {2560, 2560}, {4096, 4096}, {10240, 10240},
    {10240, 10240}, {6144, 6144}, {15360, 15360}, {15360, 15360}, {16384, 16384}, {40960, 40960},
    {40960, 40960}, {163840, 65984}, {163840, 163840}, {163840, 163840}, {8, 8}, {20, 20}, {20, 20},
    {32, 32}, {80, 80}, {80, 80}, {48, 48}, {120, 120}, {120, 120}, {128, 128}, {320, 320},
    {320, 320}, {512, 512}, {1280, 1280}, {1280, 1280}, {32, 32}, {80, 80}, {80, 80}, {128, 128},
    {320, 320}, {320, 320}, {192, 192}, {480, 480}, {480, 480}, {512, 512}, {1280, 1280},
    {1280, 1280}, {5120, 2048}, {5120, 5120}, {5120, 5120}, {48, 48}, {120, 120}, {120, 120},
    {192, 192}, {480, 480}, {480, 480}, {288, 288}, {720, 720}, {720, 720}, {768, 768},
    {1920, 1920}, {1920, 1920}, {6210, 3072}, {7680, 7680}, {7680, 7680}, {128, 128}, {320, 320},
    {320, 320}, {512, 512}, {1280, 1280}, {1280, 1280}, {768, 768}, {1920, 1920}, {1920, 1920},
    {2048, 2048}, {5120, 5120}, {5120, 5120}, {20480, 8192}, {20480, 20480}, {20480, 20480},
    {512, 512}, {1280, 1280}, {1280, 1280}, {2048, 2048}, {5120, 5120}, {5120, 5120}, {3072, 3072},
    {7680, 7680}, {7680, 7680}, {8192, 8192}, {20480, 20480}, {20480, 20480}, {81920, 33024},
    {81920, 81920}, {81920, 81920}, {8, 8}, {36, 36}, {36, 36}, {32, 32}, {144, 144}, {144, 144},
    {48, 48}, {216, 216}, {216, 216}, {128, 128}, {576, 576}, {576, 576}, {512, 512}, {2304, 2304},
    {2304, 2304}, {32, 32}, {144, 144}, {144, 144}, {128, 128}, {576, 576}, {576, 576}, {192, 192},
    {864, 864}, {864, 864}, {512, 512}, {2304, 2304}, {2304, 2304}, {2372, 2048}, {9216, 9216},
    {9216, 9216}, {48, 48}, {216, 216}, {216, 216}, {192, 192}, {864, 864}, {864, 864}, {288, 288},
    {1296, 1296}, {1296, 1296}, {768, 768}, {3456, 3456}, {3456, 3456}, {3395, 3072},
    {13824, 13824}, {13824, 13824}, {128, 128}, {576, 576}, {576, 576}, {512, 512}, {2304, 2304},
    {2304, 2304}, {768, 768}, {3456, 3456}, {3456, 3456}, {2048, 2048}, {9216, 9216}, {9216, 9216},
    {9488, 8192}, {36864, 36864}, {36864, 36864}, {512, 512}, {2304, 2304}, {2304, 2304},
    {2048, 2048}, {9216, 9216}, {9216, 9216}, {3072, 3072}, {13824, 13824}, {13824, 13824},
    {8192, 8192}, {36864, 36864}, {36864, 36864}, {37952, 33248}, {147456, 147456},
    {147456, 147456}, {11, 11}, {23, 23}, {23, 23}, {44, 44}, {92, 92}, {92, 92}, {66, 66},
    {138, 138}, {138, 138}, {176, 176}, {368, 368}, {369, 368}, {704, 704}, {1517, 1472},
    {1482, 1472}, {44, 44}, {92, 92}, {93, 92}, {173, 173}, {365, 365}, {367, 365}, {268, 268},
    {556, 556}, {563, 556}, {719, 714}, {1604, 1482}, {1509, 1485}, {6949, 2857}, {7279, 6164},
    {6748, 5946}, {66, 66}, {138, 138}, {138, 138}, {268, 268}, {568, 556}, {563, 556}, {390, 390},
    {832, 822}, {834, 823}, {1192, 1074}, {2392, 2226}, {2276, 2240}, {11050, 4300}, {11321, 9162},
    {10896, 8953}, {176, 176}, {368, 368}, {368, 368}, {721, 714}, {1529, 1482}, {1498, 1482},
    {1106, 1074}, {2401, 2226}, {2266, 2241}, {6837, 2751}, {6740, 5987}, {6656, 5823},
    {32740, 13289}, {32766, 24270}, {32657, 23649}, {704, 704}, {1507, 1472}, {1478, 1477},
    {7215, 2857}, {6739, 6075}, {6677, 5963}, {12054, 4300}, {11121, 9112}, {10856, 9028},
    {33059, 14272}, {32848, 24284}, {32860, 23796}, {142084, 105343}, {141977, 103128},
    {142007, 101813},
};
// clang-format on

TEST(Primitives, PlannerMissTableIsExact) {
  const fft::CacheModelOptions cm;
  const auto keys = primitive_table_keys();
  ASSERT_EQ(keys.size(), std::size(kPrimitiveMisses));
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const plan::CostKey& k = keys[i];
    const PrimitivePrediction p = predict_primitive(k, cm.l1, cm.l2);
    const std::string label =
        k.kind + "(" + std::to_string(k.a) + ", " + std::to_string(k.b) + ", " +
        std::to_string(k.c) + ")";
    EXPECT_EQ(p.l1_misses, kPrimitiveMisses[i][0]) << label;
    EXPECT_EQ(p.l2_misses, kPrimitiveMisses[i][1]) << label;
  }
}

TEST(CoefficientFit, RecoversPlantedConstants) {
  // Build a synthetic CostDb whose seconds are EXACTLY the model with known
  // coefficients; the regression must recover them.
  const cache::CacheConfig l1{.size_bytes = 32 * 1024, .line_bytes = 64, .associativity = 8};
  const cache::CacheConfig l2{.size_bytes = 512 * 1024, .line_bytes = 64, .associativity = 1};
  const double beta = 3.5e-10, a1 = 6.0e-9, a2 = 4.5e-8;

  plan::CostDb db;
  const std::vector<plan::CostKey> keys = {
      {"dft_leaf", 8, 1, 0, ""},    {"dft_leaf", 16, 1, 0, ""},
      {"dft_leaf", 32, 64, 0, ""},  {"dft_leaf", 16, 4096, 0, ""},
      {"tw_rows", 1024, 32, 4},     {"tw_cols", 4096, 64, 0},
      {"perm", 4096, 64, 1},        {"reorg", 64, 64, 8},
      {"stockham", 1024, 1, 0},     {"fused_tws", 64, 64, 2, ""},
  };
  for (const auto& k : keys) {
    const auto p = predict_primitive(k, l1, l2);
    const double secs = beta * primitive_flops(k) +
                        a1 * static_cast<double>(p.l1_misses) +
                        a2 * static_cast<double>(p.l2_misses);
    db.put(k, secs, plan::CostSource::calibrated);
  }

  const CostCoefficients co = fit_coefficients(db, l1, l2);
  ASSERT_TRUE(co.fitted);
  EXPECT_EQ(co.samples, keys.size());
  EXPECT_NEAR(co.beta_flop, beta, beta * 1e-6);
  EXPECT_NEAR(co.alpha_l1, a1, a1 * 1e-6);
  EXPECT_NEAR(co.alpha_l2, a2, a2 * 1e-6);
}

TEST(CoefficientFit, EmptyDbKeepsDocumentedDefaults) {
  const cache::CacheConfig l1{.size_bytes = 32 * 1024, .line_bytes = 64, .associativity = 8};
  const cache::CacheConfig l2{.size_bytes = 512 * 1024, .line_bytes = 64, .associativity = 1};
  plan::CostDb db;
  const CostCoefficients co = fit_coefficients(db, l1, l2);
  EXPECT_FALSE(co.fitted);
  const CostCoefficients defaults;
  EXPECT_EQ(co.beta_flop, defaults.beta_flop);
  EXPECT_EQ(co.alpha_l1, defaults.alpha_l1);
  EXPECT_EQ(co.alpha_l2, defaults.alpha_l2);
}

TEST(ColdStartPlanner, PlansFromTheModelWithoutMeasuring) {
  // Empty CostDb + cold_start_model: the DP must complete with every
  // primitive answered by the symbolic model — no wall-clock probes — and
  // the chosen tree must pass static verification.
  plan::CostDb db;
  fft::PlannerOptions opts;
  opts.cost_db = &db;
  opts.cache_model.cold_start_model = true;
  fft::FftPlanner planner(opts);

  const auto tree = planner.plan(4096, fft::Strategy::ddl_dp);
  ASSERT_NE(tree, nullptr);
  const fft::CostStats stats = planner.cost_stats();
  EXPECT_GT(stats.model_fallbacks, 0u);
  // Every synthetic lookup that missed the db was served by the model.
  EXPECT_EQ(stats.measured_hits, 0u);
  EXPECT_TRUE(verify::verify_plan(*tree, {Transform::fft}).ok());

  // The model's own ranking must be coherent: the DP winner's modeled cost
  // can never exceed the modeled cost of the rightmost baseline.
  const double dp_cost = planner.planned_cost(4096, fft::Strategy::ddl_dp);
  const double rm_cost = planner.estimate_tree_seconds(*fft::rightmost_tree(4096, 32));
  EXPECT_LE(dp_cost, rm_cost * (1.0 + 1e-9));
}

TEST(ColdStartPlanner, ExplicitOracleOutranksTheModel) {
  // cost_oracle set: the model must stay out of the way entirely.
  plan::CostDb db;
  fft::PlannerOptions opts;
  opts.cost_db = &db;
  opts.cache_model.cold_start_model = true;
  opts.cost_oracle = sim::simulated_cost_oracle({});
  fft::FftPlanner planner(opts);
  const auto tree = planner.plan(1024, fft::Strategy::ddl_dp);
  ASSERT_NE(tree, nullptr);
  EXPECT_EQ(planner.cost_stats().model_fallbacks, 0u);
}

}  // namespace
}  // namespace ddl::verify::cachepred
