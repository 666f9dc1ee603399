#pragma once
/// \file trace.hpp
/// \brief Whole-plan address traces into a cache::Cache.
///
/// This regenerates the paper's Shade-simulator study (Fig. 9, Fig. 10,
/// Table II) without 1999 hardware: conflict misses and line pollution
/// depend only on the address stream and the cache geometry. Nothing here
/// spells out an address stream. verify::cachepred's stage builders are the
/// one description of where each executor stage reads and writes
/// (including the 16x16 tiling of the blocked transposes). trace_fft and
/// trace_wht walk a plan's passes in the executors' order
/// (cachepred::walk_execution_order), and the simulated cost oracle replays
/// one DP primitive's passes (cachepred::primitive_passes).
///
/// Synthetic address space (cachepred::enumerate_passes):
///   [0, n*elem)                      — the transform data array
///   [data_end, data_end + 2n*elem)   — the scratch arena
///   above that                       — one twiddle table per composite size
///
/// All regions are aligned to the simulated cache's line size, as the real
/// allocator guarantees line alignment.

#include <cstdint>
#include <functional>

#include "ddl/cachesim/cache.hpp"
#include "ddl/common/types.hpp"
#include "ddl/plan/costdb.hpp"
#include "ddl/plan/tree.hpp"
#include "ddl/verify/cachepred.hpp"

namespace ddl::sim {

/// Trace options.
struct TraceOptions {
  std::size_t elem_bytes = sizeof(cplx);  ///< 16 B for FFT, 8 B for WHT
  bool include_twiddles = true;           ///< count twiddle-table traffic (FFT)
};

/// Feed the address stream of one forward FFT of `tree` (root stride 1)
/// into `cache`.
void trace_fft(const plan::Node& tree, cache::Cache& cache, TraceOptions opts = {});

/// The same for a WHT tree (no twiddles, no final permutation, right stage
/// first — mirroring wht/executor.cpp).
void trace_wht(const plan::Node& tree, cache::Cache& cache,
               TraceOptions opts = {.elem_bytes = sizeof(real_t)});

/// Replay one access pass (verify::cachepred) through caches, every
/// iteration walked — the ground truth the property suite holds
/// predict_pass's loop closure exactly equal to. When `l2` is given it sees
/// exactly the accesses that miss in `l1`, as an L2 behind it would. The
/// Sec. III-B / Fig. 3 leaf experiment is replay_pass(leaf_sweep_pass(...)).
void replay_pass(const verify::cachepred::AccessPass& pass, cache::Cache& l1,
                 cache::Cache* l2 = nullptr);

/// Configuration of the simulated cost oracle.
struct OracleOptions {
  cache::CacheConfig cache;    ///< modelled hardware (paper default: 512 KB DM)
  double miss_penalty = 30.0;  ///< cost of a miss, in hit-cost units
  index_t sweep_count = 64;    ///< successive sub-transforms per leaf probe
};

/// A cost function for the planners (PlannerOptions::cost_oracle) that
/// *simulates* each DP primitive on the modelled cache instead of timing it
/// on the host: the key's cachepred::primitive_passes replayed through one
/// cache, cost = accesses + miss_penalty * misses per primitive invocation.
/// Handles every key kind both planners emit ("dft_leaf", "tw_rows",
/// "tw_cols", "perm", "reorg", "reorg_g", "fused_tws", "stockham",
/// "wht_leaf", "wht_reorg"); throws std::invalid_argument on any other.
///
/// Planning with this oracle reproduces the paper's platform-specific tree
/// choices (Tables V/VI) on any host: on a simulated direct-mapped cache
/// the DDL search inserts ctddl splits that the host wall clock would not
/// justify. Units are abstract (hit-cost = 1); only relative costs matter
/// to the DP.
std::function<double(const plan::CostKey&)> simulated_cost_oracle(OracleOptions opts = {});

}  // namespace ddl::sim
