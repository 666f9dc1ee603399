// Reproduces the Sec. III-B cache-behaviour analysis (Fig. 3) and the
// Fig. 6 worked example: what happens to a leaf DFT's misses as its access
// stride grows, on a direct-mapped cache.
//
//   Case I/II (n*s <= C): compulsory misses only; successive DFTs reuse
//                         fetched lines.
//   Case III  (n*s > C, s a power of two): conflict misses inside a single
//                         DFT and no reuse across successive DFTs.

#include <iostream>

#include "ddl/cachesim/cache.hpp"
#include "ddl/common/mathutil.hpp"
#include "ddl/common/table.hpp"
#include "ddl/sim/trace.hpp"

namespace {

using namespace ddl;

constexpr std::size_t kCacheBytes = 512 * 1024;
constexpr std::size_t kLineBytes = 64;
constexpr index_t kCachePoints = kCacheBytes / sizeof(cplx);  // 2^15

}  // namespace

int main() {
  std::cout << "Sec. III-B / Fig. 3 reproduction: leaf-DFT misses vs stride\n"
            << "cache: 512KB direct-mapped, 64B lines; 64 successive 16-point DFTs\n\n";

  const index_t n = 16;
  const index_t dfts = 64;

  TableWriter table({"stride", "n*s_points", "case", "misses", "misses_per_dft", "conflict"});
  for (int k = 0; k <= 17; ++k) {
    const index_t s = pow2(k);
    cache::Cache dm({kCacheBytes, kLineBytes, 1, cache::Replacement::lru});
    sim::replay_pass(verify::cachepred::leaf_sweep_pass(n, s, dfts, sizeof(cplx)), dm);
    const char* regime = (n * s <= kCachePoints) ? "I/II" : "III";
    table.add_row({fmt_pow2(s), fmt_pow2(n * s), regime,
                   std::to_string(dm.stats().misses),
                   fmt_double(static_cast<double>(dm.stats().misses) / dfts, 2),
                   std::to_string(dm.stats().conflict_misses)});
  }
  table.print(std::cout, "16-point leaf DFT: misses vs stride");

  // Fig. 6 worked example: 256-point DFT as 16 x 16, C = 64 points, B = 4
  // points (1 KB direct-mapped cache, 64 B lines, 16 B points).
  std::cout << "\nFig. 6 worked example (C=64 points, B=4 points):\n";
  {
    cache::Cache dm({64 * sizeof(cplx), 4 * sizeof(cplx), 1, cache::Replacement::lru});
    sim::replay_pass(verify::cachepred::leaf_sweep_pass(16, 16, 1, sizeof(cplx)), dm);
    std::cout << "  stride-16 16-pt DFT: " << dm.stats().misses << "/"
              << dm.stats().accesses << " accesses miss (maps onto only 4 sets)\n";
  }
  {
    cache::Cache dm({64 * sizeof(cplx), 4 * sizeof(cplx), 1, cache::Replacement::lru});
    sim::replay_pass(verify::cachepred::leaf_sweep_pass(16, 1, 1, sizeof(cplx)), dm);
    std::cout << "  after reorganization (unit stride): " << dm.stats().misses << "/"
              << dm.stats().accesses << " accesses miss (4 compulsory line fetches)\n";
  }
  std::cout << "\npaper shape check: misses/DFT jump to the no-reuse plateau once n*s\n"
               "exceeds the cache and the stride is a power of two.\n";
  return 0;
}
