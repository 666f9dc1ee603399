#include "ddl/sim/trace.hpp"

#include <stdexcept>

#include "ddl/common/check.hpp"
#include "ddl/verify/cachepred.hpp"

namespace ddl::sim {

namespace cp = verify::cachepred;

namespace {

/// The simulated oracle's cost of a miss, in hit-cost units.
constexpr double kMissPenalty = 30.0;

/// Walk the plan's passes in execution order into `cache`, in the address
/// space enumerate_passes lays out with regions aligned to the cache line.
void trace(const plan::Node& tree, verify::Transform transform, const TraceOptions& opts,
           cache::Cache& cache) {
  DDL_REQUIRE(opts.elem_bytes > 0, "element size must be positive");
  cp::AnalyzeOptions ao;
  ao.transform = transform;
  ao.elem_bytes = opts.elem_bytes;
  ao.include_twiddles = opts.include_twiddles;
  ao.align_bytes = cache.config().line_bytes;
  cp::walk_execution_order(cp::enumerate_passes(tree, ao), [&cache](std::uint64_t addr,
                                                                    bool is_write) {
    cache.access(addr, is_write);
  });
}

}  // namespace

void trace_fft(const plan::Node& tree, cache::Cache& cache, TraceOptions opts) {
  trace(tree, verify::Transform::fft, opts, cache);
}

void trace_wht(const plan::Node& tree, cache::Cache& cache, TraceOptions opts) {
  trace(tree, verify::Transform::wht, opts, cache);
}

std::function<double(const plan::CostKey&)> simulated_cost_oracle() {
  return [](const plan::CostKey& key) -> double {
    const auto passes = cp::primitive_passes(key);
    if (passes.empty()) {
      throw std::invalid_argument("simulated_cost_oracle: unknown primitive kind '" + key.kind +
                                  "'");
    }
    // CacheConfig's default is the paper's 512 KB direct-mapped cache; it
    // stays warm across the key's passes.
    cache::Cache cache(cache::CacheConfig{});
    for (const auto& pass : passes) cp::replay_pass(pass, cache);
    const auto& s = cache.stats();
    const double cost =
        static_cast<double>(s.accesses) + kMissPenalty * static_cast<double>(s.misses);
    // Leaf probes average over their sweep of sub-transforms.
    const bool leaf = key.kind == "dft_leaf" || key.kind == "wht_leaf";
    return leaf ? cost / static_cast<double>(cp::kLeafSweep) : cost;
  };
}

}  // namespace ddl::sim
