// Reproduces Figs. 11-14: FFT performance (the paper's normalized MFLOPS,
// 5 n log2 n / t) across sizes. Three views, because the paper's hardware
// (direct-mapped / 2-way caches, no multi-stream prefetch) no longer
// exists:
//
//  1. Host wall clock, searched plans: FFTW-like (stride-blind rightmost),
//     FFT SDL (size/stride DP, no reorganization) and FFT DDL (the paper's
//     search). On a modern high-associativity, prefetching CPU the DDL
//     search may legitimately return a static tree — the paper's own thesis
//     is that cache *organization* decides this.
//  2. Host wall clock, fixed balanced shape, SDL vs DDL: isolates the
//     reorganization mechanism itself (same tree, only the layout differs).
//     This is where the strided-stage penalty and its recovery are visible
//     on any machine.
//  3. Simulated 1999-class platforms (stand-ins for Alpha 21264, MIPS
//     R10000, Pentium 4, UltraSPARC III): the miss-rate gap that produced
//     the paper's 2-3x wall-clock wins.

#include <algorithm>
#include <iostream>
#include <limits>
#include <string>

#include "bench_common.hpp"
#include "ddl/bench_util/bench_util.hpp"
#include "ddl/cachesim/cache.hpp"
#include "ddl/codelets/codelets.hpp"
#include "ddl/common/cli.hpp"
#include "ddl/common/table.hpp"
#include "ddl/common/timer.hpp"
#include "ddl/fft/executor.hpp"
#include "ddl/fft/fft.hpp"
#include "ddl/fft/stockham.hpp"
#include "ddl/obs/export.hpp"
#include "ddl/obs/obs.hpp"
#include "ddl/plan/obs_ingest.hpp"
#include "ddl/sim/trace.hpp"

namespace {

using namespace ddl;

/// Set when a plan_build stage shows up inside a traced measured region:
/// the run timed executor construction instead of the transform (the
/// PlanCache was cold). The bench fails at exit when this trips.
bool g_plan_build_in_timed = false;

double measure_seconds(const plan::Node& tree) {
  // Best of two adaptive runs: robust against scheduler blips on shared
  // machines while keeping the whole sweep under a couple of minutes.
  return std::min(fft::FftPlanner::measure_tree_seconds(tree, 0.05),
                  fft::FftPlanner::measure_tree_seconds(tree, 0.05));
}

/// One BENCH_fft.json row: the measurement plus, for the n that were
/// traced, per-stage self-time shares from a single instrumented run.
benchutil::BenchRecord make_record(const plan::Node& tree, const char* strategy,
                                   double seconds, bool traced) {
  benchutil::BenchRecord rec;
  rec.n = tree.n;
  rec.strategy = strategy;
  rec.tree = plan::to_string(tree);
  rec.threads = benchcommon::threads_used();
  rec.seconds = seconds;
  rec.mflops = benchutil::fft_mflops(tree.n, seconds);
  if (traced) {
    fft::FftExecutor exec(tree);
    AlignedBuffer<cplx> buf(tree.n);
    exec.forward(buf.span());  // warm untraced
    obs::enable(true);
    exec.forward(buf.span());  // traced warmup registers the event rings
    obs::reset();
    const std::uint64_t t0 = obs::now_ns();
    exec.forward(buf.span());
    const double wall = static_cast<double>(obs::now_ns() - t0) * 1e-9;
    obs::enable(false);
    const obs::Snapshot snap = obs::snapshot();
    for (const obs::Event& e : snap.events) {
      if (e.stage == obs::Stage::plan_build) g_plan_build_in_timed = true;
    }
    if (wall > 0) {
      for (const obs::StageStats& s : obs::summarize(snap)) {
        rec.stage_share.emplace_back(obs::stage_name(s.stage), s.self_seconds / wall);
      }
    }
  }
  return rec;
}

/// Synthetic stand-ins for the paper's four platforms (L2 geometry).
struct Platform {
  const char* name;
  std::size_t cache_bytes;
  std::size_t line_bytes;
  int assoc;
};

constexpr Platform kPlatforms[] = {
    {"alpha21264-like", 2u << 20, 64, 1},   // 2 MB direct-mapped, 64 B
    {"r10000-like", 1u << 20, 32, 2},       // 1 MB 2-way, 32 B lines
    {"pentium4-like", 256u << 10, 128, 8},  // 256 KB 8-way, 128 B
    {"usparc3-like", 1u << 20, 64, 2},      // 1 MB 2-way, 64 B
};

}  // namespace

int main(int argc, char** argv) {
  const cli::Args args = cli::Args::parse(argc, argv);
  if (args.has("threads")) {
    parallel::set_threads(static_cast<int>(args.int_or("threads", 1)));
  }
  benchutil::print_host_banner(std::cout);
  std::cout << "Figs. 11-14 reproduction: FFT MFLOPS vs size\n";
  std::cout << "codelet backend: " << codelets::isa_name(codelets::active_isa())
            << " (override with DDL_SIMD=scalar|sse2|avx2|neon|native)\n\n";

  benchcommon::Stores stores;
  fft::FftPlanner planner(benchcommon::fft_opts(stores));

  std::cout << "view 1: searched plans on the host CPU (plus fixed baselines), "
            << benchcommon::threads_note() << "\n\n";
  benchutil::BenchJsonWriter bench_json("fig11_14_fft_perf");
  int sizes_total = 0;
  int planner_wins = 0;
  TableWriter table({"n", "thr", "stockham", "fftw_like", "fft_sdl", "fft_ddl", "ddl/fftw",
                     "win", "ddl_nodes"});
  for (int k = 8; k <= 22; k += 2) {
    const index_t n = index_t{1} << k;
    const auto fftw_tree = planner.plan(n, fft::Strategy::rightmost);

    // Calibrate-then-plan (the `ddlfft autotune` loop, inline): traced runs
    // of the baseline and a root-reorganized shape feed in-situ stage costs
    // into the shared CostDb, and the DP below searches over those measured
    // entries instead of synthetic tight-loop probes. Champion trees
    // remembered by a prior `ddlfft autotune` run still take precedence via
    // wisdom recall.
    {
      const auto ddl_seed = fft::balanced_tree(n, 32, n);
      fft::FftExecutor base_exec(*fftw_tree);
      fft::FftExecutor seed_exec(*ddl_seed);
      AlignedBuffer<cplx> cal(n);
      obs::enable(true);
      base_exec.forward(cal.span());  // traced warmup registers the rings
      seed_exec.forward(cal.span());
      obs::reset();
      base_exec.forward(cal.span());
      seed_exec.forward(cal.span());
      obs::enable(false);
      plan::ingest_stage_costs(stores.cost_db, obs::snapshot());
      planner.invalidate();
    }

    const auto sdl_tree = planner.plan(n, fft::Strategy::sdl_dp);
    const auto ddl_tree = planner.plan(n, fft::Strategy::ddl_dp);

    // Stockham autosort: the "no strides by construction" extreme.
    fft::StockhamFft stockham_fft(n);
    AlignedBuffer<cplx> buf(n);
    const double t_st = std::min(
        time_adaptive([&] { stockham_fft.forward(buf.span()); }, {.min_total_seconds = 0.05}),
        time_adaptive([&] { stockham_fft.forward(buf.span()); }, {.min_total_seconds = 0.05}));
    const double st = benchutil::fft_mflops(n, t_st);

    const double t_sdl = measure_seconds(*sdl_tree);
    // The planner-vs-rightmost comparison is the acceptance metric, so it
    // gets the noise-robust protocol: when the DP (via the wisdom champion)
    // returned the rightmost tree itself, that is a tie by construction —
    // one measurement serves both rows. Distinct contenders are timed in
    // alternating rounds so scheduler drift on a shared machine hits both
    // equally instead of whichever happened to run second.
    const bool same_plan = plan::equal(*ddl_tree, *fftw_tree);
    double t_fftw = std::numeric_limits<double>::infinity();
    double t_ddl = std::numeric_limits<double>::infinity();
    const int rounds = same_plan ? 2 : 3;
    for (int r = 0; r < rounds; ++r) {
      t_fftw = std::min(t_fftw, fft::FftPlanner::measure_tree_seconds(*fftw_tree, 0.05));
      if (!same_plan) {
        t_ddl = std::min(t_ddl, fft::FftPlanner::measure_tree_seconds(*ddl_tree, 0.05));
      }
    }
    if (same_plan) t_ddl = t_fftw;
    const double fftw = benchutil::fft_mflops(n, t_fftw);
    const double sdl = benchutil::fft_mflops(n, t_sdl);
    const double ddl = benchutil::fft_mflops(n, t_ddl);

    // Stage shares only for the largest sizes: one traced run each is
    // cheap there and that's where the layout stages matter.
    const bool traced = k >= 18;
    // "Planner >= rightmost" within the run-to-run noise band of wall-clock
    // measurement on a shared machine: a 2% band keeps genuinely equal trees
    // (including literal ties, which share one measurement above) from
    // flipping to a loss on scheduler jitter, while a real regression —
    // the planner picking a slower tree — still reads NO.
    const bool win = ddl >= 0.98 * fftw;
    ++sizes_total;
    planner_wins += win ? 1 : 0;
    bench_json.add(make_record(*fftw_tree, "rightmost", t_fftw, false));
    bench_json.add(make_record(*sdl_tree, "sdl_dp", t_sdl, false));
    benchutil::BenchRecord ddl_rec = make_record(*ddl_tree, "ddl_dp", t_ddl, traced);
    ddl_rec.planner_win = win ? 1 : 0;
    bench_json.add(std::move(ddl_rec));

    table.add_row({fmt_pow2(n), std::to_string(benchcommon::threads_used()), fmt_double(st, 0),
                   fmt_double(fftw, 0), fmt_double(sdl, 0), fmt_double(ddl, 0),
                   fmt_double(ddl / fftw, 2), win ? "yes" : "NO",
                   std::to_string(plan::ddl_node_count(*ddl_tree))});
  }
  table.print(std::cout, "searched plans (normalized MFLOPS; higher is better)");
  std::cout << "\nplanner vs rightmost: won " << planner_wins << "/" << sizes_total
            << " sizes (acceptance target: all, single-threaded)\n";

  const auto bench_path = benchutil::BenchJsonWriter::resolve_path("BENCH_fft.json");
  if (bench_json.write(bench_path)) {
    std::cout << "\nmachine-readable results: " << bench_path.string() << "\n";
  }

  std::cout << "\nview 2: fixed balanced shape — the reorganization mechanism itself, "
            << benchcommon::threads_note() << "\n\n";
  TableWriter mech({"n", "thr", "bal_sdl_ms", "bal_ddl_ms", "sdl/ddl"});
  for (int k = 16; k <= 22; k += 2) {
    const index_t n = index_t{1} << k;
    const auto bal_sdl = fft::balanced_tree(n, 32, 0);
    const auto bal_ddl = fft::balanced_tree(n, 32, n);  // reorganize at the root
    const double ts = measure_seconds(*bal_sdl);
    const double td = measure_seconds(*bal_ddl);
    mech.add_row({fmt_pow2(n), std::to_string(benchcommon::threads_used()),
                  fmt_double(ts * 1e3, 1), fmt_double(td * 1e3, 1), fmt_double(ts / td, 2)});
  }
  mech.print(std::cout, "same tree, static vs dynamic layout");

  std::cout << "\nview 3: simulated 1999-class platforms (n = 2^18, miss rates %)\n\n";
  TableWriter sim_table({"platform", "sdl_miss_%", "ddl_miss_%", "reduction_%"});
  const index_t n = 1 << 18;
  for (const auto& p : kPlatforms) {
    const index_t cache_points = static_cast<index_t>(p.cache_bytes / sizeof(cplx));
    const auto sdl_tree = fft::rightmost_tree(n, 32);
    const auto ddl_tree = fft::balanced_tree(n, 32, cache_points);
    cache::Cache sdl_cache({p.cache_bytes, p.line_bytes, p.assoc, cache::Replacement::lru});
    sim::trace_fft(*sdl_tree, sdl_cache);
    cache::Cache ddl_cache({p.cache_bytes, p.line_bytes, p.assoc, cache::Replacement::lru});
    sim::trace_fft(*ddl_tree, ddl_cache);
    const double s = sdl_cache.stats().miss_rate() * 100.0;
    const double d = ddl_cache.stats().miss_rate() * 100.0;
    sim_table.add_row({p.name, fmt_double(s, 2), fmt_double(d, 2),
                       fmt_double((s - d) / s * 100.0, 1)});
  }
  sim_table.print(std::cout);

  std::cout << "\npaper shape check: (1) searched engines tie below the cache boundary and\n"
               "DDL never loses; (2) at fixed shape the dynamic layout recovers the\n"
               "strided-stage penalty, growing with n; (3) on low-associativity caches\n"
               "the miss-rate gap behind the paper's 2-3x wall-clock wins reproduces.\n";
  if (g_plan_build_in_timed) {
    std::cerr << "ERROR: plan_build stage recorded inside a measured region — the bench\n"
                 "timed executor construction, not the transform\n";
    return 1;
  }
  return 0;
}
