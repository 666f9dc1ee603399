// Cross-module integration tests: the full pipeline (plan -> execute ->
// verify) at realistic sizes, trees from the paper's tables executed
// verbatim, planner + simulator interplay, and application-level usage
// (convolution, batched transforms).

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "ddl/cachesim/cache.hpp"
#include "ddl/common/aligned.hpp"
#include "ddl/common/rng.hpp"
#include "ddl/fft/fft.hpp"
#include "ddl/fft/planner.hpp"
#include "ddl/fft/radix2.hpp"
#include "ddl/fft/reference.hpp"
#include "ddl/plan/grammar.hpp"
#include "ddl/sim/trace.hpp"
#include "ddl/wht/planner.hpp"
#include "ddl/wht/wht.hpp"

namespace ddl {
namespace {

fft::PlannerOptions fast_fft_opts() {
  fft::PlannerOptions o;
  o.measure_floor = 2e-4;
  o.stream_points = 1 << 14;
  return o;
}

TEST(Integration, PlannedFftLargeRoundTripAgainstRadix2) {
  fft::FftPlanner planner(fast_fft_opts());
  const index_t n = 1 << 16;
  auto fft = fft::Fft::plan_with(planner, n, fft::Strategy::ddl_dp);

  AlignedBuffer<cplx> a(n);
  AlignedBuffer<cplx> b(n);
  fill_random(a.span(), 2026);
  for (index_t i = 0; i < n; ++i) b[i] = a[i];

  fft.forward(a.span());
  fft::Radix2Fft r2(n);
  r2.forward(b.span());
  EXPECT_LT(fft::max_abs_diff(a.span(), b.span()), 1e-8 * std::sqrt(static_cast<double>(n)));

  fft.inverse(a.span());
  r2.inverse(b.span());
  EXPECT_LT(fft::max_abs_diff(a.span(), b.span()), 1e-10 * n);
}

TEST(Integration, PaperTable1TreesExecuteCorrectly) {
  // Tree shapes of the kind enumerated in Table I (scaled down to keep the
  // oracle cross-check fast): right-most SDL chains and ctddl-balanced trees.
  const char* trees[] = {
      "ct(16,ct(16,ct(16,16)))",
      "ct(32,ct(32,ct(16,4)))",
      "ctddl(ct(16,16),ct(16,16))",
      "ctddl(ctddl(16,16),ctddl(16,16))",
      "ctddl(ctddl(32,32),ct(16,4))",
  };
  for (const char* g : trees) {
    auto f = fft::Fft::from_tree(g);
    ASSERT_EQ(f.size(), 1 << 16) << g;
    AlignedBuffer<cplx> a(f.size());
    AlignedBuffer<cplx> b(f.size());
    fill_random(a.span(), 11);
    for (index_t i = 0; i < f.size(); ++i) b[i] = a[i];
    f.forward(a.span());
    fft::Radix2Fft r2(f.size());
    r2.forward(b.span());
    EXPECT_LT(fft::max_abs_diff(a.span(), b.span()), 1e-7) << g;
  }
}

TEST(Integration, FastConvolutionMatchesDirect) {
  // Application-level use of the public API: circular convolution.
  const index_t n = 1 << 10;
  auto fft = fft::Fft::from_tree("ctddl(32,32)");
  AlignedBuffer<cplx> a(n);
  AlignedBuffer<cplx> b(n);
  fill_random(a.span(), 1);
  fill_random(b.span(), 2);
  const std::vector<cplx> va(a.begin(), a.end());
  const std::vector<cplx> vb(b.begin(), b.end());

  std::vector<cplx> direct(static_cast<std::size_t>(n), cplx{0, 0});
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      direct[static_cast<std::size_t>((i + j) % n)] += va[static_cast<std::size_t>(i)] *
                                                       vb[static_cast<std::size_t>(j)];
    }
  }

  fft.forward(a.span());
  fft.forward(b.span());
  for (index_t i = 0; i < n; ++i) a[i] *= b[i];
  fft.inverse(a.span());
  double worst = 0;
  for (index_t i = 0; i < n; ++i) {
    worst = std::max(worst, std::abs(a[i] - direct[static_cast<std::size_t>(i)]));
  }
  EXPECT_LT(worst, 1e-8 * n);
}

TEST(Integration, BatchedTransformsReuseOnePlan) {
  const index_t n = 4096;
  auto fft = fft::Fft::from_tree("ct(ctddl(16,16),16)");
  fft::Radix2Fft oracle(n);
  for (std::uint64_t batch = 0; batch < 8; ++batch) {
    AlignedBuffer<cplx> a(n);
    AlignedBuffer<cplx> b(n);
    fill_random(a.span(), 1000 + batch);
    for (index_t i = 0; i < n; ++i) b[i] = a[i];
    fft.forward(a.span());
    oracle.forward(b.span());
    ASSERT_LT(fft::max_abs_diff(a.span(), b.span()), 1e-8) << "batch " << batch;
  }
}

TEST(Integration, PlannerTreesFeedTheSimulator) {
  // The tree chosen by the planner can be fed unchanged to the tracer: the
  // whole plan->simulate pipeline of the Fig. 9 experiment.
  fft::FftPlanner planner(fast_fft_opts());
  const auto tree = planner.plan(1 << 12, fft::Strategy::ddl_dp);
  cache::Cache sim({.size_bytes = 64 * 1024, .line_bytes = 64, .associativity = 1});
  sim::trace_fft(*tree, sim);
  EXPECT_GT(sim.stats().accesses, 0u);
  EXPECT_GT(sim.stats().misses, 0u);
  EXPECT_LE(sim.stats().miss_rate(), 1.0);
}

TEST(Integration, WhtPlannedTransformSelfInverse) {
  wht::PlannerOptions opts;
  opts.measure_floor = 2e-4;
  opts.stream_points = 1 << 14;
  wht::WhtPlanner planner(opts);
  const index_t n = 1 << 14;
  const auto tree = planner.plan(n, fft::Strategy::ddl_dp);
  wht::WhtExecutor exec(*tree);

  AlignedBuffer<real_t> x(n);
  fill_random(x.span(), 3);
  const std::vector<real_t> original(x.begin(), x.end());
  exec.transform(x.span());
  exec.transform(x.span());
  for (index_t k = 0; k < n; ++k) {
    ASSERT_NEAR(x[k], static_cast<double>(n) * original[static_cast<std::size_t>(k)], 1e-7 * n);
  }
}

TEST(Integration, SdlAndDdlPlansAgreeNumerically) {
  fft::FftPlanner planner(fast_fft_opts());
  const index_t n = 1 << 14;
  auto sdl = fft::Fft::plan_with(planner, n, fft::Strategy::sdl_dp);
  auto ddl = fft::Fft::plan_with(planner, n, fft::Strategy::ddl_dp);
  AlignedBuffer<cplx> a(n);
  AlignedBuffer<cplx> b(n);
  fill_random(a.span(), 8);
  for (index_t i = 0; i < n; ++i) b[i] = a[i];
  sdl.forward(a.span());
  ddl.forward(b.span());
  EXPECT_LT(fft::max_abs_diff(a.span(), b.span()), 1e-8);
}

}  // namespace
}  // namespace ddl
