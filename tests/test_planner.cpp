// Tests for the dynamic-programming planners (FFT and WHT): every strategy
// must yield a correct executable tree; DP invariants (DDL never predicted
// worse than SDL, estimate == DP cost for the chosen tree); tree-shape
// expectations; and wisdom round-trips through the planner.
//
// Measurement floors are tiny here: we are testing search mechanics, not
// measurement quality.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "ddl/common/aligned.hpp"
#include "ddl/common/mathutil.hpp"
#include "ddl/common/parallel.hpp"
#include "ddl/common/rng.hpp"
#include "ddl/fft/planner.hpp"
#include "ddl/fft/radix2.hpp"
#include "ddl/fft/reference.hpp"
#include "ddl/fft/executor.hpp"
#include "ddl/obs/obs.hpp"
#include "ddl/plan/grammar.hpp"
#include "ddl/plan/obs_ingest.hpp"
#include "ddl/sim/trace.hpp"
#include "ddl/wht/planner.hpp"
#include "ddl/wht/wht.hpp"

namespace ddl::fft {
namespace {

PlannerOptions fast_opts() {
  PlannerOptions o;
  o.measure_floor = 2e-4;
  o.stream_points = 1 << 14;
  return o;
}

/// Check that a tree covers size n, only uses viable leaves, and executes
/// correctly against the radix-2 oracle.
void expect_valid_fft_plan(const plan::Node& tree, index_t n) {
  ASSERT_EQ(tree.n, n);
  AlignedBuffer<cplx> a(n);
  AlignedBuffer<cplx> b(n);
  fill_random(a.span(), 99);
  for (index_t i = 0; i < n; ++i) b[i] = a[i];
  execute_tree(tree, a.span());
  Radix2Fft r2(n);
  r2.forward(b.span());
  EXPECT_LT(max_abs_diff(a.span(), b.span()), 1e-9 * n) << plan::to_string(tree);
}

TEST(FftPlanner, AllStrategiesProduceCorrectPlans) {
  FftPlanner planner(fast_opts());
  for (const Strategy s :
       {Strategy::rightmost, Strategy::balanced, Strategy::sdl_dp, Strategy::ddl_dp}) {
    for (const index_t n : {index_t{64}, index_t{1} << 10, index_t{1} << 12}) {
      const auto tree = planner.plan(n, s);
      expect_valid_fft_plan(*tree, n);
    }
  }
}

TEST(FftPlanner, DdlSearchNeverPredictsWorseThanSdl) {
  // The DDL search space strictly contains the SDL space and both share the
  // same memoized primitive costs, so the DP optimum can only improve.
  FftPlanner planner(fast_opts());
  for (const index_t n : {index_t{1} << 8, index_t{1} << 10, index_t{1} << 12}) {
    EXPECT_LE(planner.planned_cost(n, Strategy::ddl_dp),
              planner.planned_cost(n, Strategy::sdl_dp) * (1.0 + 1e-12))
        << "n=" << n;
  }
}

TEST(FftPlanner, EstimateOfChosenTreeEqualsDpCost) {
  FftPlanner planner(fast_opts());
  const index_t n = 1 << 10;
  for (const Strategy s : {Strategy::sdl_dp, Strategy::ddl_dp}) {
    const auto tree = planner.plan(n, s);
    const double est = planner.estimate_tree_seconds(*tree);
    const double dp = planner.planned_cost(n, s);
    EXPECT_NEAR(est, dp, 1e-9 * std::max(est, dp)) << strategy_name(s);
  }
}

TEST(FftPlanner, SdlTreesHaveNoDdlNodesAndDdlTreesMay) {
  FftPlanner planner(fast_opts());
  const auto sdl = planner.plan(1 << 12, Strategy::sdl_dp);
  EXPECT_EQ(plan::ddl_node_count(*sdl), 0);
  const auto right = planner.plan(1 << 12, Strategy::rightmost);
  EXPECT_EQ(plan::ddl_node_count(*right), 0);
}

TEST(FftPlanner, NonPowerOfTwoSizes) {
  FftPlanner planner(fast_opts());
  for (const index_t n : {index_t{3 * 256}, index_t{5 * 243}, index_t{7 * 7 * 16}}) {
    const auto tree = planner.plan(n, Strategy::ddl_dp);
    ASSERT_EQ(tree->n, n);
    // Validate against the O(n^2) reference (no radix-2 for these sizes).
    AlignedBuffer<cplx> x(n);
    fill_random(x.span(), 5);
    std::vector<cplx> input(x.begin(), x.end());
    std::vector<cplx> expect(static_cast<std::size_t>(n));
    dft_reference(std::span<const cplx>(input), std::span<cplx>(expect));
    execute_tree(*tree, x.span());
    EXPECT_LT(max_abs_diff(x.span(), std::span<const cplx>(expect)), 1e-8 * n);
  }
}

TEST(FftPlanner, RejectsBadSizes) {
  FftPlanner planner(fast_opts());
  EXPECT_THROW(planner.plan(1, Strategy::ddl_dp), std::invalid_argument);
  EXPECT_THROW(planner.plan(0, Strategy::ddl_dp), std::invalid_argument);
}

TEST(FftPlanner, MeasureTreeSecondsPositiveAndMonotonic) {
  const double small = FftPlanner::measure_tree_seconds(*plan::parse_tree("ct(16,16)"), 2e-3);
  const double large =
      FftPlanner::measure_tree_seconds(*plan::parse_tree("ct(ct(16,16),ct(16,16))"), 2e-3);
  EXPECT_GT(small, 0.0);
  EXPECT_GT(large, small);  // 65536 points vs 256 points
}

TEST(FftPlanner, CostDbSharedAcrossPlanners) {
  plan::CostDb db;
  PlannerOptions opts = fast_opts();
  opts.cost_db = &db;
  {
    FftPlanner p1(opts);
    p1.plan(1 << 10, Strategy::ddl_dp);
  }
  const std::size_t primed = db.size();
  EXPECT_GT(primed, 0u);
  FftPlanner p2(opts);
  p2.plan(1 << 10, Strategy::ddl_dp);  // should be answered from the shared DB
  EXPECT_EQ(db.size(), primed);
}

TEST(FftPlanner, WisdomShortCircuitsPlanning) {
  plan::Wisdom wisdom;
  wisdom.remember("fft", "ddl_dp", 256, {"ctddl(16,16)", 1e-6});
  PlannerOptions opts = fast_opts();
  opts.wisdom = &wisdom;
  FftPlanner planner(opts);
  const auto tree = planner.plan(256, Strategy::ddl_dp);
  EXPECT_EQ(plan::to_string(*tree), "ctddl(16,16)");
}

TEST(FftPlanner, PlanningRecordsWisdom) {
  plan::Wisdom wisdom;
  PlannerOptions opts = fast_opts();
  opts.wisdom = &wisdom;
  FftPlanner planner(opts);
  const auto tree = planner.plan(1 << 10, Strategy::sdl_dp);
  const auto hit = wisdom.recall("fft", "sdl_dp", 1 << 10);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->tree, plan::to_string(*tree));
}

// ---------------------------------------------------------------------------
// Measured-cost autotuning round-trip (the `ddlfft autotune` loop)
// ---------------------------------------------------------------------------

TEST(FftPlanner, AutotuneRoundTripConsultsMeasuredCosts) {
  const index_t n = 1 << 10;
  plan::CostDb db;
  PlannerOptions opts = fast_opts();
  opts.cost_db = &db;
  FftPlanner planner(opts);

  // Before calibration every primitive lookup is a synthetic fallback.
  planner.reset_cost_stats();
  const auto seed = planner.plan(n, Strategy::ddl_dp);
  const CostStats before = planner.cost_stats();
  EXPECT_EQ(before.measured_hits, 0u);
  EXPECT_GT(before.synthetic_fallbacks, 0u);

  // Calibrate from traced executions of the seed and the baseline tree.
  const auto base = rightmost_tree(n, opts.max_leaf);
  obs::enable(true);
  obs::reset();
  for (const plan::Node* t : {seed.get(), base.get()}) {
    FftExecutor exec(*t);
    AlignedBuffer<cplx> buf(n);
    fill_random(buf.span(), 7);
    exec.forward(buf.span());
    exec.forward(buf.span());
  }
  obs::enable(false);
  const plan::IngestStats ing = plan::ingest_stage_costs(db, obs::snapshot());
  ASSERT_GT(ing.keys_written, 0u);
  ASSERT_GT(ing.events_used, 0u);

  // Re-plan over the calibrated entries: stale memo decisions must go, the
  // fresh DP must actually consult measured costs (fail on pure synthetic
  // fallback), and the tuned tree must still execute correctly.
  planner.invalidate();
  planner.reset_cost_stats();
  const auto tuned = planner.plan(n, Strategy::ddl_dp);
  const CostStats after = planner.cost_stats();
  EXPECT_GT(after.measured_hits, 0u)
      << "DP never consulted a calibrated cost (" << after.synthetic_fallbacks
      << " synthetic fallbacks)";
  expect_valid_fft_plan(*tuned, n);
}

TEST(FftPlanner, EstimateHandlesFusedAndStockhamTrees) {
  FftPlanner planner(fast_opts());
  EXPECT_GT(planner.estimate_tree_seconds(*plan::parse_tree("st(1024)")), 0.0);
  EXPECT_GT(planner.estimate_tree_seconds(*plan::parse_tree("ctddlf(st(32),32)")), 0.0);
  // The fused estimate must price the one-sweep pass, not the two-pass pair.
  const double fused = planner.estimate_tree_seconds(*plan::parse_tree("ctddlf(32,32)"));
  const double two_pass = planner.estimate_tree_seconds(*plan::parse_tree("ctddl(32,32)"));
  EXPECT_GT(fused, 0.0);
  EXPECT_GT(two_pass, 0.0);
  EXPECT_NE(fused, two_pass);
}

TEST(FftPlanner, FusedSplitWinsWhenOracleMakesTwoPassExpensive) {
  PlannerOptions opts = fast_opts();
  opts.enable_stockham = false;  // isolate the fused-vs-two-pass choice
  opts.cost_oracle = [](const plan::CostKey& k) {
    // Two-pass twiddle/permute primitives are priced out; the fused sweep,
    // the gather half, and the leaves are nearly free.
    if (k.kind == "tw_rows" || k.kind == "tw_cols" || k.kind == "reorg" ||
        k.kind == "perm") {
      return 1.0;
    }
    return 1e-7;
  };
  FftPlanner planner(opts);
  const auto tree = planner.plan(1 << 10, Strategy::ddl_dp);
  struct {
    bool found = false;
    void walk(const plan::Node& nd) {
      if (nd.fused) found = true;
      if (!nd.is_leaf()) {
        walk(*nd.left);
        walk(*nd.right);
      }
    }
  } fused;
  fused.walk(*tree);
  EXPECT_TRUE(fused.found) << plan::to_string(*tree);
  expect_valid_fft_plan(*tree, 1 << 10);
}

TEST(FftPlanner, StockhamLeafWinsWhenOracleFavorsIt) {
  PlannerOptions opts = fast_opts();
  opts.cost_oracle = [](const plan::CostKey& k) {
    return k.kind == "stockham" ? 1e-9 : 1.0;
  };
  FftPlanner planner(opts);
  const auto tree = planner.plan(1 << 10, Strategy::ddl_dp);
  ASSERT_TRUE(tree->is_leaf());
  EXPECT_TRUE(tree->stockham) << plan::to_string(*tree);
  expect_valid_fft_plan(*tree, 1 << 10);
}

// ---------------------------------------------------------------------------
// Simulated-cost oracle planning
// ---------------------------------------------------------------------------

TEST(OraclePlanner, ProducesCorrectExecutableTrees) {
  PlannerOptions opts = fast_opts();
  opts.cost_oracle = sim::simulated_cost_oracle();
  FftPlanner planner(opts);
  for (const Strategy s : {Strategy::sdl_dp, Strategy::ddl_dp}) {
    const index_t n = 1 << 12;
    const auto tree = planner.plan(n, s);
    expect_valid_fft_plan(*tree, n);
  }
}

TEST(OraclePlanner, DeterministicAcrossPlanners) {
  // Simulation has no measurement noise: two planners must agree exactly.
  PlannerOptions opts = fast_opts();
  opts.cost_oracle = sim::simulated_cost_oracle();
  FftPlanner a(opts);
  FftPlanner b(opts);
  for (const index_t n : {index_t{1} << 10, index_t{1} << 14}) {
    EXPECT_TRUE(plan::equal(*a.plan(n, Strategy::ddl_dp), *b.plan(n, Strategy::ddl_dp)));
    EXPECT_DOUBLE_EQ(a.planned_cost(n, Strategy::ddl_dp), b.planned_cost(n, Strategy::ddl_dp));
  }
}

TEST(OraclePlanner, Paper1999CacheMakesDdlSplitsAppear) {
  // The paper's signature result (Tables V/VI): on a 512 KB direct-mapped
  // cache the DDL search reorganizes transforms larger than the cache and
  // keeps the SDL tree for smaller ones.
  PlannerOptions opts = fast_opts();
  opts.cost_oracle = sim::simulated_cost_oracle();
  FftPlanner planner(opts);
  const auto small = planner.plan(1 << 12, Strategy::ddl_dp);   // fits (2^15 points)
  const auto large = planner.plan(1 << 18, Strategy::ddl_dp);   // exceeds
  EXPECT_EQ(plan::ddl_node_count(*small), 0);
  EXPECT_GT(plan::ddl_node_count(*large), 0);
  // And the DDL plan is predicted strictly cheaper than the SDL plan there.
  EXPECT_LT(planner.planned_cost(1 << 18, Strategy::ddl_dp),
            planner.planned_cost(1 << 18, Strategy::sdl_dp));
}

TEST(OraclePlanner, PlanDoesNotDependOnThreadCount) {
  // The oracle models a one-CPU machine, so the host's pool width must not
  // reach the DP's loop terms: at 4 threads they used to divide away the
  // sub-transform costs and leave the reorganizations undivided, so the
  // 2^18 DDL plan lost its ctddl node.
  plan::CostDb db;  // shared, so each key is simulated once
  PlannerOptions opts = fast_opts();
  opts.cost_oracle = sim::simulated_cost_oracle();
  opts.cost_db = &db;
  const int saved_threads = parallel::max_threads();
  std::vector<std::string> trees;
  std::vector<double> costs;
  for (const int threads : {1, 4}) {
    parallel::set_threads(threads);
    FftPlanner planner(opts);
    for (const Strategy s : {Strategy::sdl_dp, Strategy::ddl_dp}) {
      trees.push_back(plan::to_string(*planner.plan(1 << 16, s)));
      costs.push_back(planner.planned_cost(1 << 16, s));
    }
  }
  parallel::set_threads(saved_threads);
  EXPECT_EQ(trees[0], trees[2]);
  EXPECT_EQ(trees[1], trees[3]);
  EXPECT_EQ(costs[0], costs[2]);
  EXPECT_EQ(costs[1], costs[3]);
}

TEST(OraclePlanner, UnknownKindThrows) {
  const auto oracle = sim::simulated_cost_oracle();
  EXPECT_THROW(oracle({"nonsense", 1, 2, 3}), std::invalid_argument);
}

TEST(FixedTrees, RightmostShape) {
  const auto t = rightmost_tree(1 << 15, 32);
  EXPECT_EQ(t->n, 1 << 15);
  const plan::Node* cur = t.get();
  while (!cur->is_leaf()) {
    EXPECT_TRUE(cur->left->is_leaf());
    cur = cur->right.get();
  }
}

TEST(FixedTrees, BalancedSplitsNearSqrt) {
  const auto t = balanced_tree(1 << 16, 32);
  ASSERT_FALSE(t->is_leaf());
  EXPECT_EQ(t->left->n, 1 << 8);
  EXPECT_EQ(t->right->n, 1 << 8);
}

TEST(FixedTrees, BalancedDdlThreshold) {
  const auto t = balanced_tree(1 << 16, 32, 1 << 12);
  EXPECT_GT(plan::ddl_node_count(*t), 0);
  plan::for_each_node(*t, 1, [](const plan::Node& nd, index_t) {
    if (!nd.is_leaf() && nd.n < (1 << 12)) {
      EXPECT_FALSE(nd.ddl);
    }
  });
}

}  // namespace
}  // namespace ddl::fft

namespace ddl::wht {
namespace {

using fft::Strategy;

PlannerOptions fast_opts() {
  PlannerOptions o;
  o.measure_floor = 2e-4;
  o.stream_points = 1 << 14;
  return o;
}

void expect_valid_wht_plan(const plan::Node& tree, index_t n) {
  ASSERT_EQ(tree.n, n);
  AlignedBuffer<real_t> x(n);
  fill_random(x.span(), 31);
  std::vector<real_t> expect(x.begin(), x.end());
  wht_reference(std::span<real_t>(expect));
  execute_tree(tree, x.span());
  for (index_t k = 0; k < n; ++k) {
    ASSERT_NEAR(x[k], expect[static_cast<std::size_t>(k)], 1e-8 * n) << plan::to_string(tree);
  }
}

TEST(WhtPlanner, AllStrategiesProduceCorrectPlans) {
  WhtPlanner planner(fast_opts());
  for (const Strategy s :
       {Strategy::rightmost, Strategy::balanced, Strategy::sdl_dp, Strategy::ddl_dp}) {
    for (const index_t n : {index_t{64}, index_t{1} << 10, index_t{1} << 13}) {
      const auto tree = planner.plan(n, s);
      expect_valid_wht_plan(*tree, n);
    }
  }
}

TEST(WhtPlanner, DdlSearchNeverPredictsWorseThanSdl) {
  WhtPlanner planner(fast_opts());
  for (const index_t n : {index_t{1} << 8, index_t{1} << 12}) {
    EXPECT_LE(planner.planned_cost(n, Strategy::ddl_dp),
              planner.planned_cost(n, Strategy::sdl_dp) * (1.0 + 1e-12));
  }
}

TEST(WhtPlanner, EstimateOfChosenTreeEqualsDpCost) {
  WhtPlanner planner(fast_opts());
  const index_t n = 1 << 12;
  for (const Strategy s : {Strategy::sdl_dp, Strategy::ddl_dp}) {
    const auto tree = planner.plan(n, s);
    const double est = planner.estimate_tree_seconds(*tree);
    const double dp = planner.planned_cost(n, s);
    EXPECT_NEAR(est, dp, 1e-9 * std::max(est, dp));
  }
}

TEST(WhtPlanner, RejectsNonPow2) {
  WhtPlanner planner(fast_opts());
  EXPECT_THROW(planner.plan(12, Strategy::ddl_dp), std::invalid_argument);
  EXPECT_THROW(planner.plan(1, Strategy::ddl_dp), std::invalid_argument);
}

TEST(WhtPlanner, WisdomRoundTrip) {
  plan::Wisdom wisdom;
  PlannerOptions opts = fast_opts();
  opts.wisdom = &wisdom;
  WhtPlanner planner(opts);
  const auto tree = planner.plan(1 << 10, Strategy::ddl_dp);
  const auto hit = wisdom.recall("wht", "ddl_dp", 1 << 10);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->tree, plan::to_string(*tree));
  // A second planner with the same wisdom reproduces the tree verbatim.
  WhtPlanner planner2(opts);
  const auto tree2 = planner2.plan(1 << 10, Strategy::ddl_dp);
  EXPECT_TRUE(plan::equal(*tree, *tree2));
}

TEST(WhtPlanner, MeasureTreeSeconds) {
  const double t = WhtPlanner::measure_tree_seconds(*plan::parse_tree("ct(32,32)"), 2e-3);
  EXPECT_GT(t, 0.0);
}

TEST(WhtPlanner, SimulatedOracleMakesDdlSplitsAppear) {
  PlannerOptions opts = fast_opts();
  opts.cost_oracle = sim::simulated_cost_oracle();
  WhtPlanner planner(opts);
  // 8-byte points: the 512 KB cache holds 2^16; plan well past it.
  const auto tree = planner.plan(1 << 19, Strategy::ddl_dp);
  EXPECT_GT(plan::ddl_node_count(*tree), 0);
  const auto small = planner.plan(1 << 12, Strategy::ddl_dp);
  EXPECT_EQ(plan::ddl_node_count(*small), 0);
}

}  // namespace
}  // namespace ddl::wht
