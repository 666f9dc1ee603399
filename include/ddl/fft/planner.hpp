#pragma once
/// \file planner.hpp
/// \brief Factorization-tree search for the DFT (Sec. IV-B of the paper).
///
/// Four strategies:
///
///  * Strategy::rightmost — FFTW-2-style cache-oblivious baseline: a
///    right-expanded tree with greedy largest-codelet leaves; codelet
///    performance is assumed independent of stride.
///  * Strategy::balanced  — fixed near-balanced split at every level (no
///    search); useful as a reference tree shape.
///  * Strategy::sdl_dp    — DP over (size, stride) states per Property 1 but
///    with no data reorganization allowed. Models the CMU FFT SDL package.
///  * Strategy::ddl_dp    — the paper's search: each split may additionally
///    execute its left stage through a dynamic data layout, charged with the
///    measured reorganization cost Dr (eq. 3). Complexity O(log^2 n * rho^2)
///    with rho = 2 layouts per node.
///
/// The DP base costs ("initial values", Sec. IV-B) are measured on the host
/// by timing the real leaf codelets, twiddle passes, permutations, and
/// reorganizations, and cached in a CostDb that can persist across runs.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>

#include "ddl/cachesim/cache.hpp"
#include "ddl/common/types.hpp"
#include "ddl/plan/costdb.hpp"
#include "ddl/plan/tree.hpp"
#include "ddl/plan/wisdom.hpp"
#include "ddl/verify/cachepred.hpp"

namespace ddl::fft {

/// Tree-selection strategy.
enum class Strategy {
  rightmost,  ///< size-only DP over right-expanded trees (FFTW-2-like)
  balanced,   ///< near-balanced splits, no search
  sdl_dp,     ///< (size, stride) DP, static layout only (CMU-package-like)
  ddl_dp,     ///< (size, stride) DP with dynamic data layout (the paper)
};

/// Human-readable strategy name (used in wisdom keys and bench tables).
const char* strategy_name(Strategy s) noexcept;

/// Cache-model-guided planning: the symbolic miss analyzer
/// (verify::cachepred) promoted from post-hoc validator to planning oracle.
struct CacheModelOptions {
  /// Serve cost lookups that have neither a probe nor a calibrated CostDb
  /// entry from the symbolic model (alpha * predicted_misses + beta * flops)
  /// instead of running a wall-clock microbenchmark. Coefficients are fit
  /// once per planner from whatever calibrated/probed entries the CostDb
  /// already holds (defaults when it is empty), so a cold start plans with
  /// zero measurements: ddl_dp took 0.26 s at 2^12 and 5.2 s at 2^16 on a
  /// 4-vCPU AVX2 Xeon at one thread (benchmark `planner.plan_s.*`). Ignored
  /// when a cost_oracle is set — an explicit oracle outranks the model.
  bool cold_start_model = false;

  /// Cache geometry the model plans against (defaults: 32 KB 8-way L1,
  /// 512 KB direct-mapped L2, 64 B lines — the shape the rest of the repo's
  /// simulation defaults to).
  cache::CacheConfig l1{.size_bytes = 32 * 1024, .line_bytes = 64, .associativity = 8};
  cache::CacheConfig l2{.size_bytes = 512 * 1024, .line_bytes = 64, .associativity = 1};
};

/// Planner configuration.
struct PlannerOptions {
  index_t max_leaf = 32;             ///< largest codelet leaf size to consider
  double measure_floor = 2e-3;       ///< seconds of accumulated time per cost probe
  index_t stream_points = 1 << 21;   ///< working-set extent used to emulate stage streaming
  plan::CostDb* cost_db = nullptr;   ///< optional shared/persistent cost store
  plan::Wisdom* wisdom = nullptr;    ///< optional plan reuse store

  /// Hysteresis for the reorganizing option: a ctddl split must beat the
  /// best static alternative by this fraction to be chosen. Measured costs
  /// carry noise, and a reorganization selected on a sub-percent margin is
  /// as likely to lose as win at execution time; the paper similarly
  /// restricts DDL to regimes where it wins decisively (Sec. IV-B).
  double ddl_margin = 0.02;

  /// Let the DP consider ctddlf splits (the fused twiddle+scatter pass in
  /// place of the separate twiddle-columns and reorg-scatter stages).
  bool enable_fused = true;

  /// Let the DP consider st(n) Stockham autosort leaves for power-of-two
  /// subproblems — the "reshape the computation" alternative to DDL's
  /// "reshape the data", competing on measured cost like every other option.
  bool enable_stockham = true;

  /// Optional cost oracle: when set, every primitive cost comes from this
  /// function instead of a wall-clock measurement (still memoized through
  /// the CostDb). Lets the same DP search plan for *modelled* hardware —
  /// e.g. sim::simulated_cost_oracle() plans for a 1999-style cache and
  /// reproduces the paper's Table V/VI tree shapes on any host. The DP then
  /// plans for one worker, so the host's thread count never changes an
  /// oracle plan.
  std::function<double(const plan::CostKey&)> cost_oracle;

  /// Symbolic cache-model integration (cold-start costs).
  CacheModelOptions cache_model;
};

/// Where the DP's primitive costs came from, per planner lifetime. The
/// autotune flow asserts measured_hits > 0 after calibration: a DP that ran
/// entirely on synthetic fallbacks never consulted the data it was tuned on.
struct CostStats {
  std::uint64_t measured_hits = 0;        ///< lookups answered by calibrated entries
  std::uint64_t synthetic_fallbacks = 0;  ///< lookups served by probe/oracle costs
  std::uint64_t model_fallbacks = 0;      ///< lookups served by the symbolic cache model
};

/// Planner with memoized (size, stride, layout) DP state.
///
/// A planner instance owns measurement buffers sized to the largest size it
/// has been asked to plan; plan() may therefore allocate, but the returned
/// trees are plain data.
class FftPlanner {
 public:
  explicit FftPlanner(PlannerOptions opts = {});
  ~FftPlanner();

  FftPlanner(const FftPlanner&) = delete;
  FftPlanner& operator=(const FftPlanner&) = delete;

  /// Choose a factorization tree for an n-point DFT under `strategy`.
  plan::TreePtr plan(index_t n, Strategy strategy);

  /// DP-predicted execution time of the tree plan(n, strategy) would return.
  double planned_cost(index_t n, Strategy strategy);

  /// Predicted execution time of an *arbitrary* tree under the same cost
  /// model the DP uses (the estimation column of Table I). root_stride is 1
  /// for a whole transform.
  double estimate_tree_seconds(const plan::Node& tree, index_t root_stride = 1);

  /// Wall-clock time of actually executing `tree` once per call, averaged
  /// over enough calls to accumulate `floor` seconds (the paper's protocol).
  static double measure_tree_seconds(const plan::Node& tree, double floor = 1e-2);

  /// The literal search of the paper's Fig. 8: dynamic programming over
  /// (size, stride) states where every candidate tree's cost is the
  /// *measured wall time* of executing it (Get_Time in the paper), not the
  /// composed model estimate. Far more expensive than plan() — it times
  /// O(log^2 n * splits) whole subtrees — and intended for moderate sizes
  /// and for validating the model-driven search. `allow_ddl` selects the
  /// SDL or DDL search space.
  plan::TreePtr plan_measured(index_t n, bool allow_ddl, double floor = 2e-3);

  /// Measured cost of the plan_measured(n, allow_ddl) winner.
  double measured_cost(index_t n, bool allow_ddl, double floor = 2e-3);

  /// The cost database in use (owned unless injected via options).
  plan::CostDb& cost_db() noexcept { return *cost_db_; }

  /// Drop every memoized DP decision (model-driven and measured). Call after
  /// new calibrated costs land in the CostDb — memo entries computed from
  /// stale synthetic costs would otherwise shadow the measured ones forever.
  void invalidate();

  /// Provenance tally of every primitive cost lookup since construction (or
  /// the last reset): calibrated CostDb hits vs synthetic fallbacks.
  [[nodiscard]] CostStats cost_stats() const noexcept { return stats_; }
  void reset_cost_stats() noexcept { stats_ = {}; }

 private:
  struct Best {
    double cost = 0.0;
    plan::TreePtr tree;
  };

  const Best& best(index_t n, index_t stride, bool allow_ddl);
  double fanout_workers(index_t node_n, index_t items) const;
  const Best& measured_best(index_t n, index_t stride, bool allow_ddl, double floor);
  double measure_subtree(const plan::Node& tree, index_t stride, double floor);

  // Primitive cost probes (memoized through the CostDb). All flow through
  // probe(), which tallies calibrated-vs-synthetic provenance into stats_.
  double probe(const plan::CostKey& key, const std::function<double()>& measure);
  double leaf_cost(index_t n, index_t stride);
  double twiddle_cost(index_t n, index_t n2, index_t stride);
  double perm_cost(index_t n, index_t n2, index_t stride);
  double reorg_cost(index_t n1, index_t n2, index_t stride);
  double reorg_gather_cost(index_t n1, index_t n2, index_t stride);
  double fused_cost(index_t n1, index_t n2, index_t stride);
  double stockham_cost(index_t n, index_t stride);

  // Symbolic cache-model hook (CacheModelOptions): serves a cost lookup from
  // alpha * predicted_misses + beta * flops.
  double model_cost_for(const plan::CostKey& key);

  void ensure_buffers(index_t points);
  std::vector<index_t> candidate_leaves(index_t n) const;
  std::vector<std::pair<index_t, index_t>> candidate_splits(index_t n) const;

  PlannerOptions opts_;
  std::unique_ptr<plan::CostDb> owned_db_;
  plan::CostDb* cost_db_;
  std::map<std::tuple<index_t, index_t, bool>, Best> memo_;
  std::map<std::tuple<index_t, index_t, bool>, Best> measured_memo_;
  CostStats stats_;

  // Lazily fit cost-model coefficients. Reset in invalidate(): newly
  // calibrated CostDb entries should refit the regression.
  verify::cachepred::CostCoefficients coeffs_;
  bool coeffs_ready_ = false;

  struct Buffers;                  // measurement arrays (defined in .cpp)
  std::unique_ptr<Buffers> bufs_;
};

/// Fixed right-expanded tree with greedy largest-codelet leaves (no DP).
plan::TreePtr rightmost_tree(index_t n, index_t max_leaf = 32);

/// Near-balanced tree: split n = n1*n2 with n1 as close to sqrt(n) as the
/// divisor lattice allows, recursively, down to codelet leaves. If
/// ddl_above is positive, splits of size >= ddl_above are marked ddl.
plan::TreePtr balanced_tree(index_t n, index_t max_leaf = 32, index_t ddl_above = 0);

}  // namespace ddl::fft
