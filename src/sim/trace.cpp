#include "ddl/sim/trace.hpp"

#include <stdexcept>

#include "ddl/common/check.hpp"

namespace ddl::sim {

namespace cp = verify::cachepred;

namespace {

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

void replay_pass(const cp::AccessPass& pass, cache::Cache& l1, cache::Cache* l2) {
  // Two walks rather than one with a per-access test for l2: replay is the
  // hot loop of the simulated oracle.
  if (l2 == nullptr) {
    cp::walk_pass(pass, [&l1](std::uint64_t addr, bool is_write) { l1.access(addr, is_write); });
    return;
  }
  cp::walk_pass(pass, [&l1, l2](std::uint64_t addr, bool is_write) {
    if (!l1.access(addr, is_write)) l2->access(addr, is_write);
  });
}

std::function<double(const plan::CostKey&)> simulated_cost_oracle(OracleOptions opts) {
  return [opts](const plan::CostKey& key) -> double {
    const auto passes = cp::primitive_passes(key, opts.sweep_count);
    if (passes.empty()) {
      throw std::invalid_argument("simulated_cost_oracle: unknown primitive kind '" + key.kind +
                                  "'");
    }
    cache::Cache cache(opts.cache);  // warm across the key's passes
    for (const auto& pass : passes) replay_pass(pass, cache);
    const auto& s = cache.stats();
    const double cost =
        static_cast<double>(s.accesses) + opts.miss_penalty * static_cast<double>(s.misses);
    // Leaf probes average over their sweep of sub-transforms.
    const bool leaf = key.kind == "dft_leaf" || key.kind == "wht_leaf";
    return leaf ? cost / static_cast<double>(opts.sweep_count) : cost;
  };
}

}  // namespace ddl::sim
