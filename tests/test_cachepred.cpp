// Property suite for the symbolic cache-miss analyzer (verify::cachepred).
//
// The central contract: predict_pass is the cache simulator's transition
// function evaluated symbolically, so for EVERY pass the plan emitter
// produces and EVERY tested geometry, the prediction must equal a replay of
// the same pass through the real cache::Cache — exactly, field by field,
// prefetchers and eviction counts included. The steady-state loop closure
// must be invisible: closure-on and closure-off predictions are identical.
//
// On top of that: the per-stage cold sum bounding the execution-order
// whole-plan trace (sim::trace_fft walks these same passes), footprint
// coverage, the planner's cold-start model and split prefilter, and
// coefficient-fit recovery on a synthetic cost database. The exact numbers
// of the whole-plan walk and the simulated oracle are pinned in test_sim.

#include <gtest/gtest.h>

#include <cmath>
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

/// Geometries the predict == replay property is enforced over. Every replay
/// cache runs with split_remiss on, because the symbolic evaluator always
/// classifies capacity vs conflict through the FA shadow.
std::vector<NamedConfig> property_configs() {
  std::vector<NamedConfig> out;
  auto add = [&out](const std::string& name, cache::CacheConfig cfg) {
    cfg.split_remiss = true;
    out.push_back({name, cfg});
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

void expect_level_eq(const LevelPrediction& p, const cache::CacheStats& s,
                     const std::string& label) {
  EXPECT_EQ(p.accesses, s.accesses) << label;
  EXPECT_EQ(p.misses, s.misses) << label;
  EXPECT_EQ(p.compulsory, s.compulsory_misses) << label;
  EXPECT_EQ(p.capacity, s.capacity_misses) << label;
  EXPECT_EQ(p.conflict, s.conflict_misses) << label;
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
  cache::CacheConfig l1{.size_bytes = 2 * 1024, .line_bytes = 64, .associativity = 1};
  l1.split_remiss = true;
  cache::CacheConfig l2{.size_bytes = 64 * 1024, .line_bytes = 64, .associativity = 1};
  l2.split_remiss = true;
  for (const index_t n : {index_t{1024}, index_t{4096}}) {
    for (const auto& [tree_name, tree] : property_trees(n)) {
      for (const auto& pass : enumerate_passes(*tree)) {
        const std::string label =
            tree_name + "/" + std::to_string(n) + "/" + pass.node_path + ":" + pass.op;
        expect_predict_equals_replay(pass, l1, &l2, label);
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
  cache::CacheConfig cfg{.size_bytes = 1024, .line_bytes = 64, .associativity = 1};
  cfg.split_remiss = true;
  AnalyzeOptions opts;
  opts.transform = Transform::wht;
  for (const index_t n : {index_t{1024}, index_t{4096}}) {
    const auto tree = wht::balanced_wht_tree(n, 64, 512);
    for (const auto& pass : enumerate_passes(*tree, opts)) {
      expect_predict_equals_replay(pass, cfg, nullptr,
                                   "wht/" + std::to_string(n) + "/" + pass.op);
    }
  }
}

TEST(Closure, ClosedFormMatchesFullWalk) {
  // The steady-state loop closure is an optimization, never an
  // approximation: with it disabled the evaluator walks every iteration,
  // and the counts must be identical.
  const auto configs = property_configs();
  for (const index_t n : {index_t{1024}, index_t{4096}}) {
    for (const auto& [tree_name, tree] : property_trees(n)) {
      for (const auto& cfg : configs) {
        for (const auto& pass : enumerate_passes(*tree)) {
          const PassPrediction fast = predict_pass(pass, cfg.cfg, nullptr, true);
          const PassPrediction slow = predict_pass(pass, cfg.cfg, nullptr, false);
          const std::string label =
              tree_name + "/" + std::to_string(n) + "/" + cfg.name + "/" + pass.op;
          EXPECT_EQ(fast.l1.accesses, slow.l1.accesses) << label;
          EXPECT_EQ(fast.l1.misses, slow.l1.misses) << label;
          EXPECT_EQ(fast.l1.compulsory, slow.l1.compulsory) << label;
          EXPECT_EQ(fast.l1.capacity, slow.l1.capacity) << label;
          EXPECT_EQ(fast.l1.conflict, slow.l1.conflict) << label;
          EXPECT_EQ(fast.l1.evictions, slow.l1.evictions) << label;
        }
      }
    }
  }
}

TEST(Closure, FiresOnLeafSweeps) {
  // Sanity that the closure actually engages somewhere (otherwise the
  // equality above is vacuous): a long run of identical shifted leaf sweeps
  // over a no-prefetch cache is its home turf.
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

TEST(ColdStartPlanner, PrefilterPrunesAndCountsSkippedSplits) {
  plan::CostDb db;
  fft::PlannerOptions opts;
  opts.cost_db = &db;
  opts.cache_model.cold_start_model = true;
  opts.cache_model.prefilter = true;
  opts.cache_model.prune_factor = 1.01;  // aggressive: force visible pruning
  fft::FftPlanner planner(opts);

  const auto tree = planner.plan(4096, fft::Strategy::ddl_dp);
  ASSERT_NE(tree, nullptr);
  EXPECT_GT(planner.cost_stats().pruned_splits, 0u);
  EXPECT_TRUE(verify::verify_plan(*tree, {Transform::fft}).ok());
}

TEST(ColdStartPlanner, PrefilterNeverChangesTunedPlans) {
  // Once the CostDb holds entries for the node-level keys, the prefilter
  // must be a no-op: splits with known costs are never pruned, so planning
  // for a tuned size is bit-identical with and without it.
  plan::CostDb db;
  fft::PlannerOptions base;
  base.cost_db = &db;
  base.cache_model.cold_start_model = true;
  fft::FftPlanner reference(base);
  const auto expected = reference.plan(2048, fft::Strategy::ddl_dp);

  // db now contains every key the DP touched (model values memoized as
  // probe entries) — a "tuned" database from the prefilter's viewpoint.
  fft::PlannerOptions filtered = base;
  filtered.cache_model.prefilter = true;
  filtered.cache_model.prune_factor = 1.0;  // maximally aggressive
  fft::FftPlanner planner(filtered);
  const auto tree = planner.plan(2048, fft::Strategy::ddl_dp);

  EXPECT_EQ(plan::to_string(*tree), plan::to_string(*expected));
  EXPECT_EQ(planner.cost_stats().pruned_splits, 0u);
}

TEST(ColdStartPlanner, PrefilterReducesColdStartWork) {
  fft::PlannerOptions opts;
  opts.cache_model.cold_start_model = true;
  plan::CostDb plain_db;
  opts.cost_db = &plain_db;
  fft::FftPlanner plain(opts);
  plain.plan(4096, fft::Strategy::ddl_dp);
  const auto plain_calls = plain.cost_stats().model_fallbacks;

  plan::CostDb filtered_db;
  opts.cost_db = &filtered_db;
  opts.cache_model.prefilter = true;
  // Aggressive factor: the DP memo shares subtree states across splits, so
  // only pruning that removes whole subtree families reduces lookups.
  opts.cache_model.prune_factor = 1.01;
  fft::FftPlanner filtered(opts);
  filtered.plan(4096, fft::Strategy::ddl_dp);
  EXPECT_GT(filtered.cost_stats().pruned_splits, 0u);
  EXPECT_LT(filtered.cost_stats().model_fallbacks, plain_calls);
}

TEST(ColdStartPlanner, ExplicitOracleOutranksTheModel) {
  // cost_oracle set: the model must stay out of the way entirely.
  plan::CostDb db;
  fft::PlannerOptions opts;
  opts.cost_db = &db;
  opts.cache_model.cold_start_model = true;
  opts.cache_model.prefilter = true;
  opts.cost_oracle = sim::simulated_cost_oracle({});
  fft::FftPlanner planner(opts);
  const auto tree = planner.plan(1024, fft::Strategy::ddl_dp);
  ASSERT_NE(tree, nullptr);
  EXPECT_EQ(planner.cost_stats().model_fallbacks, 0u);
  EXPECT_EQ(planner.cost_stats().pruned_splits, 0u);
}

}  // namespace
}  // namespace ddl::verify::cachepred
