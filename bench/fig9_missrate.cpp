// Reproduces Fig. 9: cache miss rate vs FFT size, SDL vs DDL, on the
// paper's simulated cache (512 KB direct-mapped, 16-byte points, 64 B
// lines — the Shade-simulator configuration of Sec. V-A).
//
// Expected shape: the two curves coincide while the transform fits in the
// cache (n <= 2^15 points) and diverge sharply above it, with DDL holding a
// substantially lower miss rate (paper: up to ~25% lower).

#include <iostream>

#include "ddl/bench_util/bench_util.hpp"
#include "ddl/cachesim/cache.hpp"
#include "ddl/common/table.hpp"
#include "ddl/fft/planner.hpp"
#include "ddl/sim/trace.hpp"

namespace {

using namespace ddl;

constexpr std::size_t kCacheBytes = 512 * 1024;
constexpr std::size_t kLineBytes = 64;
// 512 KB of 16-byte points = 2^15 points, the crossover the paper cites.
constexpr index_t kCachePoints = kCacheBytes / sizeof(cplx);

}  // namespace

int main() {
  std::cout << "Fig. 9 reproduction: FFT cache miss rate vs size\n"
            << "cache: 512KB direct-mapped, 64B lines, 16B points (2^15 points)\n\n";

  TableWriter table({"n", "sdl_miss_%", "ddl_miss_%", "reduction_%"});

  for (const index_t n : benchutil::pow2_range(12, 20)) {
    // SDL: the shape static-layout packages pick (right-expanded codelet
    // chain). DDL: for transforms that fit in the cache the DDL search keeps
    // the SDL tree (reorganization cannot pay off — Sec. IV-B); above the
    // cache it reorganizes at the large nodes of a balanced tree.
    const auto sdl_tree = fft::rightmost_tree(n, 32);
    const auto ddl_tree = n > kCachePoints ? fft::balanced_tree(n, 32, kCachePoints)
                                           : fft::rightmost_tree(n, 32);

    cache::Cache sdl_cache({kCacheBytes, kLineBytes, 1, cache::Replacement::lru});
    sim::trace_fft(*sdl_tree, sdl_cache);

    cache::Cache ddl_cache({kCacheBytes, kLineBytes, 1, cache::Replacement::lru});
    sim::trace_fft(*ddl_tree, ddl_cache);

    const double sdl_rate = sdl_cache.stats().miss_rate() * 100.0;
    const double ddl_rate = ddl_cache.stats().miss_rate() * 100.0;
    table.add_row({fmt_pow2(n), fmt_double(sdl_rate, 2), fmt_double(ddl_rate, 2),
                   fmt_double((sdl_rate - ddl_rate) / sdl_rate * 100.0, 1)});
  }

  table.print(std::cout, "FFT miss rate vs size (SDL vs DDL)");
  std::cout << "\npaper shape check: curves overlap below 2^15 points, DDL lower above.\n";
  return 0;
}
