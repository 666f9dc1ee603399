// Reproduces Table VI: the optimal FFT factorization trees chosen by
// dynamic programming under static and dynamic data layouts.
//
// Two planners are run:
//  * host-measured costs — what the search picks for THIS machine;
//  * simulated 1999-cache costs (512 KB direct-mapped, the paper's
//    configuration) — what the search picks for the paper's machines.
//
// Expected shape (simulated planner): SDL optima stay close to right-most
// trees; DDL optima become balanced with ctddl splits once the transform
// exceeds the cache — the paper's Table VI signature. The host-measured
// planner may legitimately decline reorganization on modern hardware.

#include <iostream>

#include "bench_common.hpp"
#include "ddl/bench_util/bench_util.hpp"
#include "ddl/common/table.hpp"
#include "ddl/plan/grammar.hpp"
#include "ddl/sim/trace.hpp"

namespace {

using namespace ddl;

}  // namespace

int main() {
  benchutil::print_host_banner(std::cout);
  std::cout << "Table VI reproduction: optimal FFT factorizations, SDL vs DDL search\n\n";

  {
    benchcommon::Stores stores;
    fft::FftPlanner planner(benchcommon::fft_opts(stores));
    TableWriter table({"n", "fft_sdl_tree", "fft_ddl_tree", "ddl_nodes"});
    for (const index_t n : benchutil::pow2_range(10, 20)) {
      const auto sdl = planner.plan(n, fft::Strategy::sdl_dp);
      const auto ddl = planner.plan(n, fft::Strategy::ddl_dp);
      table.add_row({fmt_pow2(n), plan::to_string(*sdl), plan::to_string(*ddl),
                     std::to_string(plan::ddl_node_count(*ddl))});
    }
    table.print(std::cout, "host-measured planner (this machine)");
  }

  std::cout << "\n";
  {
    fft::PlannerOptions opts;
    opts.cost_oracle = sim::simulated_cost_oracle();  // 512KB DM, penalty 30
    fft::FftPlanner planner(opts);
    TableWriter table({"n", "fft_sdl_tree", "fft_ddl_tree", "ddl_nodes", "same"});
    for (int k = 10; k <= 20; k += 2) {
      const index_t n = index_t{1} << k;
      const auto sdl = planner.plan(n, fft::Strategy::sdl_dp);
      const auto ddl = planner.plan(n, fft::Strategy::ddl_dp);
      table.add_row({fmt_pow2(n), plan::to_string(*sdl), plan::to_string(*ddl),
                     std::to_string(plan::ddl_node_count(*ddl)),
                     plan::equal(*sdl, *ddl) ? "yes" : "no"});
    }
    table.print(std::cout, "simulated-1999-cache planner (512KB direct-mapped)");
  }

  std::cout << "\npaper shape check: on the 1999-style cache, SDL optima are near\n"
               "right-most while DDL optima are balanced with a ctddl split at the\n"
               "root for every size past the 2^15-point cache capacity.\n";
  return 0;
}
