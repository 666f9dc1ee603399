#pragma once
/// \file cachepred.hpp
/// \brief Static per-stage cache-miss prediction — the analogue of the
///        paper's Sec. III-B analysis, promoted to a planning oracle.
///
/// The footprint analyzer (footprint.hpp) models every execution stage as a
/// uniform chunk family; this module extends that write-set model to the
/// full access structure of a stage — reads, writes and twiddle-table walks
/// — and evaluates it against a configurable cache geometry *without
/// executing the plan*.
///
/// ## The pass model
///
/// Each stage becomes an `AccessPass`: an affine loop nest (outer loops for
/// sub-transform instances and chunks, an inner element loop) over a fixed
/// set of `StreamRef`s. A ref's byte address at outer indices i[] and inner
/// element e is
///
///     base + sum_l i[l]*loop_step[l] + e*elem_step
///          [+ ((mul(i)*e + off(i)) mod mod_n) * mod_scale]
///
/// where the optional modular term describes the executors' incremental
/// `idx += i; if (idx >= n) idx -= n` twiddle-table walks exactly. Every
/// pass the FFT/WHT executors run — tiled reorganization transposes,
/// twiddle passes (row, column, fused scatter), leaf read/write sweeps,
/// Stockham ping-pong butterfly stages, the closing stride permutation —
/// is expressible in this form, in the executors' exact access order.
///
/// ## One model, walked in two orders
///
/// The stage builders in cachepred.cpp are the only code that spells out
/// where an executor stage reads and writes. `enumerate_passes` applies them
/// to a plan, `primitive_passes` to one DP cost key. A plan's pass list is
/// stage-major: each stage is one pass whose leading loops run every
/// instance of it. Two walks consume that one list:
///   - `predict_pass` / `analyze_plan` predict each stage on its own, cache
///     cold at stage entry (the per-stage model);
///   - `walk_execution_order` replays the list in the executors' order,
///     each sub-transform instance running all of its stages before the
///     next one starts. sim::trace_fft and sim::trace_wht feed that walk
///     into a cache::Cache: the paper's whole-plan cache study.
///
/// ## One simulator, plus a loop closure
///
/// `predict_pass` walks the pass through one cache::Cache per level, built
/// from the configs it is given (split_remiss and prefetchers included).
/// When an outer loop's remaining iterations provably shift the access
/// stream by a constant byte offset and the caches reach a shift-invariant
/// fixed point (read through Cache::state()), the evaluator *closes the
/// loop in constant time*: the shift is an automorphism of the cache's
/// transition function, so extrapolating the remaining iterations is exact,
/// and typical instance loops cost O(cache) instead of O(iterations). Where
/// the preconditions fail it walks the whole nest, which is exactly
/// sim::replay_pass.
///
/// Exactness is enforced, never assumed: the property suite
/// (tests/test_cachepred.cpp) requires predict == sim::replay_pass for every
/// tested geometry, with split_remiss off and on. docs/CACHEMODEL.md states
/// the tolerance policy for the remaining comparison (per-stage-cold sums
/// vs. a warm whole-plan trace).

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "ddl/cachesim/cache.hpp"
#include "ddl/common/types.hpp"
#include "ddl/obs/obs.hpp"
#include "ddl/plan/costdb.hpp"
#include "ddl/plan/tree.hpp"
#include "ddl/verify/footprint.hpp"

namespace ddl::verify::cachepred {

/// One memory stream of a pass (see the file comment for the address form).
struct StreamRef {
  bool write = false;
  bool once = false;  ///< issued once per outer iteration (before element 0)
  std::uint64_t base = 0;              ///< byte address at all indices zero
  std::vector<std::int64_t> loop_step; ///< bytes per outer-loop increment
  std::int64_t elem_step = 0;          ///< bytes per inner element
  std::uint32_t width = 0;             ///< bytes touched per access (element size)

  // Modular twiddle-table walk; inactive when mod_n == 0.
  std::uint64_t mod_n = 0;             ///< table length in elements
  std::uint64_t mod_scale = 0;         ///< bytes per table element
  std::int64_t mul0 = 0;               ///< e-coefficient, constant part
  std::vector<std::int64_t> mul_loop;  ///< e-coefficient, per outer index
  std::int64_t off0 = 0;               ///< offset, constant part
  std::vector<std::int64_t> off_loop;  ///< offset, per outer index

  bool skip_first_outer = false;  ///< innermost outer index 0 skips this ref
  bool skip_first_elem = false;   ///< inner element 0 skips this ref
};

/// One inner sweep: `count` elements, each issuing `refs` in order.
struct Sweep {
  index_t count = 0;
  std::vector<StreamRef> refs;
};

/// One execution stage as an affine loop nest. Outer loops are listed
/// outermost first; every full outer iteration runs the sweeps in order.
struct AccessPass {
  std::string node_path;            ///< footprint-style tree location: one
                                    ///< segment per ancestor, and one leading
                                    ///< loop per ancestor's instance loop
  std::string op;                   ///< stage name, matching footprint ops
  std::vector<index_t> loops;       ///< outer loop trip counts
  std::vector<Sweep> sweeps;

  /// Bytes one full execution of the pass touches: each demand access
  /// weighted by its ref's element width.
  [[nodiscard]] std::uint64_t bytes_touched() const;
};

/// Prediction for one pass over a (possibly two-level) geometry.
struct PassPrediction {
  cache::CacheStats l1;
  cache::CacheStats l2;             ///< all-zero when no L2 was configured
  std::uint64_t bytes_moved = 0;    ///< bytes_touched() of the pass
  bool closed_form = false;         ///< steady-state closure fired
};

/// Predict one pass: run it through a cold cache::Cache per level (`l2` may
/// be null; it sees the L1 misses), closing the outer loop in constant time
/// once the caches reach a shifted steady state. The counts equal
/// sim::replay_pass on the same configs, split_remiss included.
PassPrediction predict_pass(const AccessPass& pass, const cache::CacheConfig& l1,
                            const cache::CacheConfig* l2 = nullptr);

namespace detail {

/// Throws std::invalid_argument unless every ref carries one step per loop.
void check_arity(const AccessPass& pass);

/// One ref as the walker runs it: its byte address and per-element step,
/// the modular table index t advancing by mul (mod n; n = 0 for a linear
/// ref) with scale bytes per index, and when it issues.
struct Cursor {
  std::int64_t addr, step, t, mul, n, scale;
  bool write;
  bool first;   ///< issued at element 0 (not skip_first_elem)
  bool later;   ///< issued after element 0 (not once)
  bool outer0;  ///< issued when the innermost outer index is 0 (not skip_first_outer)
};

/// What a ref's address, multiplier and offset gain when one outer loop
/// advances and every loop inside it wraps back to 0.
struct Carry {
  std::int64_t addr, mul, off;
};

/// Elements [first, count) of a sweep of K linear refs given at element 0,
/// with the cursors held in locals: the hot loop of every trace.
template <std::size_t K, class Touch>
void linear_sweep(const Cursor* cur, index_t first, index_t count, Touch& touch) {
  std::int64_t addr[K];
  std::int64_t step[K];
  bool write[K];
  for (std::size_t k = 0; k < K; ++k) {
    step[k] = cur[k].step;
    addr[k] = cur[k].addr + first * step[k];
    write[k] = cur[k].write;
  }
  for (index_t e = first; e < count; ++e) {
    for (std::size_t k = 0; k < K; ++k) {
      touch(static_cast<std::uint64_t>(addr[k]), write[k]);
      addr[k] += step[k];
    }
  }
}

/// Elements [first, count) of a sweep of m refs given at element 0; false
/// when m has no specialization and the caller must walk them itself.
template <class Touch>
bool linear_sweep(const Cursor* cur, std::size_t m, index_t first, index_t count, Touch& touch) {
  switch (m) {
    case 1: linear_sweep<1>(cur, first, count, touch); return true;
    case 2: linear_sweep<2>(cur, first, count, touch); return true;
    case 4: linear_sweep<4>(cur, first, count, touch); return true;
    default: return false;
  }
}

/// One outer iteration of a sweep whose refs stand at `refs`: element 0
/// issues the refs in order, then the later elements run the refs that
/// issue after element 0 (staged in `cur`). `plain`: every ref is linear
/// and issues at every element.
template <class Touch>
void sweep_once(const Sweep& sw, const Cursor* refs, bool plain, bool first_outer, Cursor* cur,
                Touch& touch) {
  const std::size_t nr = sw.refs.size();
  if (sw.count <= 0 || (plain && linear_sweep(refs, nr, 0, sw.count, touch))) return;
  std::size_t m = 0;
  bool modular = false;
  for (std::size_t q = 0; q < nr; ++q) {
    const Cursor& c = refs[q];
    if (first_outer && !c.outer0) continue;
    if (c.first) touch(static_cast<std::uint64_t>(c.addr + c.t * c.scale), c.write);
    if (c.later) {
      cur[m++] = c;
      modular = modular || c.n != 0;
    }
  }
  if (sw.count <= 1 || m == 0 || (!modular && linear_sweep(cur, m, 1, sw.count, touch))) return;
  for (index_t e = 1; e < sw.count; ++e) {
    for (std::size_t k = 0; k < m; ++k) {
      Cursor& c = cur[k];
      c.addr += c.step;
      if (c.n != 0 && (c.t += c.mul) >= c.n) c.t -= c.n;
      touch(static_cast<std::uint64_t>(c.addr + c.t * c.scale), c.write);
    }
  }
}

/// Buffers walk_nest reuses from call to call: a plan walk makes one call
/// per pass and sub-transform instance.
struct WalkScratch {
  std::vector<index_t> idx;
  std::vector<Cursor> run;    ///< every ref at the current outer indices
  std::vector<Carry> carry;   ///< per free loop, per ref
  std::vector<Cursor> cur;    ///< one sweep's refs issued after element 0
};

/// Walk one pass with its leading outer indices pinned to `pinned` and the
/// next outer loop restricted to iterations [lo, hi) (a single iteration
/// when every loop is pinned), calling touch(byte_address, is_write) for
/// each access in exact nest order.
template <class Touch>
void walk_nest(const AccessPass& pass, std::span<const index_t> pinned, index_t lo, index_t hi,
               Touch& touch, WalkScratch& ws) {
  using i64 = std::int64_t;
  const std::size_t nl = pass.loops.size();
  const std::size_t np = pinned.size();
  for (std::size_t l = np + 1; l < nl; ++l) {
    if (pass.loops[l] <= 0) return;
  }
  if (hi <= lo) return;
  std::vector<index_t>& idx = ws.idx;
  idx.assign(pinned.begin(), pinned.end());
  idx.resize(nl, 0);
  if (np < nl) idx[np] = lo;
  std::uint64_t iters = np < nl ? static_cast<std::uint64_t>(hi - lo) : 1;
  for (std::size_t l = np + 1; l < nl; ++l) iters *= static_cast<std::uint64_t>(pass.loops[l]);

  // Every ref at the first outer indices, and its carry for each free loop.
  std::size_t nrefs = 0;
  std::size_t widest = 0;
  bool plain = true;  // only linear refs that issue at every element
  for (const Sweep& sw : pass.sweeps) {
    nrefs += sw.refs.size();
    widest = std::max(widest, sw.refs.size());
    for (const StreamRef& r : sw.refs) {
      plain = plain && r.mod_n == 0 && !r.once && !r.skip_first_elem && !r.skip_first_outer;
    }
  }
  ws.run.clear();
  ws.carry.assign((nl - np) * nrefs, Carry{});
  for (const Sweep& sw : pass.sweeps) {
    for (const StreamRef& r : sw.refs) {
      Cursor c{static_cast<i64>(r.base), r.elem_step, r.off0, r.mul0, static_cast<i64>(r.mod_n),
               static_cast<i64>(r.mod_scale), r.write, !r.skip_first_elem, !r.once,
               !r.skip_first_outer};
      for (std::size_t l = 0; l < nl; ++l) {
        const i64 i = static_cast<i64>(idx[l]);
        c.addr += i * r.loop_step[l];
        if (c.n != 0) {
          c.mul += i * r.mul_loop[l];
          c.t += i * r.off_loop[l];
        }
      }
      Carry inside{};  // the free loops inside loop l, each at its last index
      for (std::size_t l = nl; l-- > np;) {
        const i64 last = static_cast<i64>(pass.loops[l]) - 1;
        Carry& cr = ws.carry[(l - np) * nrefs + ws.run.size()];
        cr.addr = r.loop_step[l] - inside.addr;
        inside.addr += last * r.loop_step[l];
        if (c.n != 0) {
          cr.mul = r.mul_loop[l] - inside.mul;
          cr.off = r.off_loop[l] - inside.off;
          inside.mul += last * r.mul_loop[l];
          inside.off += last * r.off_loop[l];
        }
      }
      ws.run.push_back(c);
    }
  }
  // Modular refs keep t and mul reduced mod n between iterations.
  const auto reduce = [](i64 v, i64 n) { return v >= 0 && v < n ? v : (v % n + n) % n; };
  for (Cursor& c : ws.run) {
    if (c.n != 0) {
      c.mul = reduce(c.mul, c.n);
      c.t = reduce(c.t, c.n);
    }
  }

  Cursor* run = ws.run.data();
  ws.cur.resize(widest);
  for (std::uint64_t it = 0;; ++it) {
    const bool first_outer = nl != 0 && idx[nl - 1] == 0;
    const Cursor* refs = run;
    for (const Sweep& sw : pass.sweeps) {
      sweep_once(sw, refs, plain, first_outer, ws.cur.data(), touch);
      refs += sw.refs.size();
    }
    if (it + 1 == iters) break;
    // Advance the free indices like an odometer and carry every ref along.
    std::size_t l = nl - 1;
    while (l > np && ++idx[l] == pass.loops[l]) idx[l--] = 0;
    if (l == np) ++idx[np];
    const Carry* cr = ws.carry.data() + (l - np) * nrefs;
    for (std::size_t q = 0; q < nrefs; ++q) {
      Cursor& c = run[q];
      c.addr += cr[q].addr;
      if (c.n != 0) {
        c.mul = reduce(c.mul + cr[q].mul, c.n);
        c.t = reduce(c.t + cr[q].off, c.n);
      }
    }
  }
}

/// One nest walk of an execution-order walk: (pass, pinned, hi).
using PassVisit = std::function<void(const AccessPass&, std::span<const index_t>, index_t)>;

/// Visit a plan's pass list in execution order: visit(pass, pinned, hi)
/// once per nest walk, with the ancestors' instance indices pinned and the
/// pass's next loop run over [0, hi).
void for_each_visit(const std::vector<AccessPass>& passes, const PassVisit& visit);

}  // namespace detail

/// Issue every demand access of the pass, in exact nest order, to
/// touch(byte_address, is_write). sim::replay_pass drives a cache::Cache
/// through this, the full walk predict_pass's loop closure is held to.
template <class Touch>
void walk_pass(const AccessPass& pass, Touch&& touch) {
  detail::check_arity(pass);
  detail::WalkScratch ws;
  detail::walk_nest(pass, {}, 0, pass.loops.empty() ? 1 : pass.loops[0], touch, ws);
}

/// Issue every demand access of a plan, given as its enumerate_passes()
/// list, in the executors' order: each instance of a child sub-transform
/// runs all of its passes before the next instance starts (a codelet
/// leaf's instance loop already walks that way).
template <class Touch>
void walk_execution_order(const std::vector<AccessPass>& passes, Touch&& touch) {
  detail::WalkScratch ws;
  detail::for_each_visit(passes, [&](const AccessPass& pass, std::span<const index_t> pinned,
                                     index_t hi) {
    detail::walk_nest(pass, pinned, 0, hi, touch, ws);
  });
}

/// Options for pass enumeration and whole-plan analysis.
struct AnalyzeOptions {
  Transform transform = Transform::fft;
  std::size_t elem_bytes = 0;       ///< 0 = by transform (16 FFT / 8 WHT)
  bool include_twiddles = true;     ///< count twiddle-table traffic (FFT)
  std::uint64_t align_bytes = 64;   ///< region alignment (the sim tracers
                                    ///< use the simulated cache's line size)
  cache::CacheConfig l1{.size_bytes = 32 * 1024, .associativity = 8};
  cache::CacheConfig l2{};          ///< paper default: 512 KB direct-mapped
};

/// Enumerate every pass of the plan, stage-major (one pass per stage, its
/// leading loops running every instance) in the order the executors first
/// reach each stage. One synthetic address space: data at 0, the scratch
/// arena after it, then one twiddle region per composite size in first-use
/// order, each region aligned to opts.align_bytes.
std::vector<AccessPass> enumerate_passes(const plan::Node& tree, const AnalyzeOptions& opts = {});

/// How a footprint stage relates to the cachepred pass list.
enum class Coverage {
  modeled,    ///< a pass with the same (node, op) exists
  expanded,   ///< subtree stage: covered by the child's own passes
  waived,     ///< explicitly out of model scope (reason recorded)
  uncovered,  ///< escaped the model — CacheReport::covered() fails
};

/// Cross-check entry: one footprint stage, its disposition, and the
/// evidence (covering pass ops or the waiver reason).
struct StageCoverage {
  std::string node_path;
  std::string op;
  Coverage status = Coverage::modeled;
  std::string detail;
};

/// One analyzed stage: the pass and its prediction.
struct StagePrediction {
  AccessPass pass;
  PassPrediction predict;
};

/// Whole-plan cache report: per-stage predictions plus the structural
/// cross-check against the footprint analyzer's stage list. `covered()` is
/// false iff some footprint stage is neither modeled, expanded nor waived —
/// the signal that a new executor stage escaped the static model.
struct CacheReport {
  std::vector<StagePrediction> stages;
  std::vector<StageCoverage> coverage;
  cache::CacheStats total_l1;
  cache::CacheStats total_l2;
  std::uint64_t bytes_moved = 0;
  bool uncovered = false;

  [[nodiscard]] bool covered() const noexcept { return !uncovered; }
};

/// Analyze a plan: enumerate passes, predict each against opts.l1/l2, and
/// cross-check coverage against enumerate_stages(tree, opts.transform).
CacheReport analyze_plan(const plan::Node& tree, const AnalyzeOptions& opts = {});

// ---------------------------------------------------------------------------
// Planning oracle: per-CostKey predictions and the fitted time model
// ---------------------------------------------------------------------------

/// Build the pass list for one DP primitive with the plan's stage builders,
/// at a packed layout: data at 0 spanning n*stride elements, the scratch
/// right after it, the twiddle table right after the scratch the primitive
/// uses. Leaf kinds model `sweep_count` successive sub-transforms like the
/// wall-clock probe. Unknown kinds yield no passes. sim::simulated_cost_oracle
/// replays these passes through one simulated cache per key.
std::vector<AccessPass> primitive_passes(const plan::CostKey& key, index_t sweep_count = 64);

/// The Sec. III-B leaf experiment (Fig. 3) as one pass: `count` successive
/// size-n leaves at `stride`, each starting one element after the previous.
AccessPass leaf_sweep_pass(index_t n, index_t stride, index_t count, std::size_t elem_bytes);

/// Nominal floating-point work of one primitive invocation (5 n log2 n for
/// transform leaves, per-point counts for twiddle/copy passes). Units are
/// abstract; the fitted beta absorbs the scale.
double primitive_flops(const plan::CostKey& key);

/// Coefficients of the cold-start time model
///     seconds = beta_flop * flops + alpha_l1 * L1_misses + alpha_l2 * L2_misses.
struct CostCoefficients {
  double beta_flop = 2.5e-10;  ///< ~4 GFLOP/s scalar baseline
  double alpha_l1 = 4.0e-9;    ///< L1 miss ~= L2 hit latency
  double alpha_l2 = 2.0e-8;    ///< L2 miss ~= memory latency (amortized)
  bool fitted = false;         ///< least-squares fit succeeded
  std::size_t samples = 0;     ///< CostDb entries the fit consumed
};

/// Fit the coefficients once per host by least squares over every CostDb
/// entry whose kind primitive_passes understands. Falls back to the
/// defaults (fitted = false) with fewer than four usable samples or a
/// singular system; negative solutions are clamped to zero.
CostCoefficients fit_coefficients(const plan::CostDb& db, const cache::CacheConfig& l1,
                                  const cache::CacheConfig& l2);

/// Predicted misses of one primitive at both levels (sum over its passes,
/// divided by the leaf sweep count where the probe protocol averages).
struct PrimitivePrediction {
  std::uint64_t l1_misses = 0;
  std::uint64_t l2_misses = 0;
};
PrimitivePrediction predict_primitive(const plan::CostKey& key, const cache::CacheConfig& l1,
                                      const cache::CacheConfig& l2);

/// The cold-start cost model: alpha/beta-weighted predicted misses + flops.
double model_cost(const plan::CostKey& key, const CostCoefficients& co,
                  const cache::CacheConfig& l1, const cache::CacheConfig& l2);

// ---------------------------------------------------------------------------
// obs::Stage coverage (linted: tools/ddl_lint.py rule `stage-coverage`)
// ---------------------------------------------------------------------------

/// Static-analysis disposition of every runtime stage tag: either the
/// footprint/cachepred op family that models it, or an explicit
/// "waived: ..." reason. Total over the enum — a new obs::Stage value
/// fails compilation here (-Wswitch) and the lint rule cross-checks that
/// the mapping table names every enum value at the source level.
const char* obs_stage_model(obs::Stage stage) noexcept;

}  // namespace ddl::verify::cachepred
