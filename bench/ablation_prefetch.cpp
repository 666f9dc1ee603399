// Ablation A4: how does hardware evolution change the SDL vs DDL picture?
//
// The paper's platforms had direct-mapped / 2-way caches and no meaningful
// prefetching; modern cores add high associativity and stream prefetchers.
// This harness sweeps the simulator across that evolution — associativity x
// prefetcher — and reports the SDL vs DDL *demand-miss* gap for a 2^18-point
// FFT at each point.
//
// Two findings worth having numbers for:
//  * absolute miss rates fall for both layouts as hardware modernizes, and
//    a stream prefetcher eats almost all of DDL's (sequential) misses while
//    SDL's beyond-region strides stay un-prefetchable — DDL's *miss-rate*
//    advantage does not disappear;
//  * the wall-clock parity observed on modern hosts (bench/fig11_14, view 1)
//    is therefore not a miss-count story but a latency-tolerance one
//    (out-of-order cores overlap the remaining misses), which a trace-driven
//    miss simulator intentionally does not model.

#include <iostream>

#include "ddl/cachesim/cache.hpp"
#include "ddl/common/table.hpp"
#include "ddl/fft/planner.hpp"
#include "ddl/sim/trace.hpp"

namespace {

using namespace ddl;

constexpr std::size_t kCacheBytes = 512 * 1024;
constexpr index_t kN = 1 << 18;
constexpr index_t kCachePoints = kCacheBytes / sizeof(cplx);

double miss_pct(const plan::Node& tree, int assoc, cache::Prefetch pf, int streams) {
  cache::Cache c({.size_bytes = kCacheBytes,
                  .line_bytes = 64,
                  .associativity = assoc,
                  .replacement = cache::Replacement::lru,
                  .prefetch = pf,
                  .stream_table = streams});
  sim::trace_fft(tree, c);
  return c.stats().miss_rate() * 100.0;
}

}  // namespace

int main() {
  std::cout << "Ablation A4: hardware evolution vs the DDL advantage (n = 2^18)\n"
            << "cache: 512KB, 64B lines; miss rates in %\n\n";

  const auto sdl = fft::rightmost_tree(kN, 32);
  const auto ddl = fft::balanced_tree(kN, 32, kCachePoints);

  struct Row {
    const char* label;
    int assoc;
    cache::Prefetch pf;
    int streams;
  };
  const Row rows[] = {
      {"direct-mapped, no prefetch (1999)", 1, cache::Prefetch::none, 1},
      {"2-way, no prefetch", 2, cache::Prefetch::none, 1},
      {"8-way, no prefetch", 8, cache::Prefetch::none, 1},
      {"8-way, next-line prefetch", 8, cache::Prefetch::next_line, 1},
      {"8-way, 8-stream prefetch", 8, cache::Prefetch::stream, 8},
      {"8-way, 32-stream prefetch (2020s)", 8, cache::Prefetch::stream, 32},
  };

  TableWriter table({"hardware", "sdl_miss_%", "ddl_miss_%", "ddl_advantage_%"});
  for (const Row& r : rows) {
    const double s = miss_pct(*sdl, r.assoc, r.pf, r.streams);
    const double d = miss_pct(*ddl, r.assoc, r.pf, r.streams);
    table.add_row({r.label, fmt_double(s, 2), fmt_double(d, 2),
                   fmt_double((s - d) / s * 100.0, 1)});
  }
  table.print(std::cout, "SDL vs DDL across cache generations");
  std::cout << "\nshape check: both miss rates fall as hardware modernizes; the stream\n"
               "prefetcher nearly eliminates DDL's sequential misses while SDL's\n"
               "beyond-region strides remain un-prefetchable, so the demand-miss gap\n"
               "persists. Modern wall-clock parity (fig11_14 view 1) comes from latency\n"
               "tolerance, not from closing this gap.\n";
  return 0;
}
