// incache and outcache: single-thread transform throughput.
//
// incache times FFTs that fit in L2 (2^8..2^16) under two trees each — the
// cold-start planner's pick and the rightmost tree — plus one WHT, so its
// time splits between leaf codelets and in-cache passes and its set-up is
// dominated by planning. outcache times 2^18..2^22 (2-32x the L2) under the
// same balanced shape in static and dynamic layout, so layout changes show
// and planner changes cannot (nothing is planned).
//
// Timed calls run in place on zeros (repeated unnormalized transforms of
// random data overflow); every case is verified once per run on seeded
// random input.

#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>
#include <future>
#include <iostream>
#include <map>
#include <memory>

#include "bench.hpp"
#include "ddl/common/aligned.hpp"
#include "ddl/common/rng.hpp"
#include "ddl/fft/executor.hpp"
#include "ddl/fft/planner.hpp"
#include "ddl/fft/reference.hpp"
#include "ddl/plan/tree.hpp"
#include "ddl/verify/cachepred.hpp"
#include "ddl/wht/planner.hpp"
#include "ddl/wht/wht.hpp"

namespace ddlbench {
namespace {

using namespace ddl;

constexpr double kSampleTarget = 200e-6;  ///< a timing sample lasts at least this long
constexpr double kEps = 2.220446049250313e-16;

std::string size_label(index_t n) {
  return "2p" + std::to_string(std::countr_zero(static_cast<std::uint64_t>(n)));
}

/// Rounding-error allowance of an n-point transform of unit-scale input.
double tolerance(index_t n) {
  const auto dn = static_cast<double>(n);
  return 64.0 * kEps * std::log2(dn) * std::sqrt(dn);
}

/// One timed transform: a tree, its executor, and the zero buffer it runs on.
struct Case {
  std::string name;  ///< "<size>.<tree>", e.g. "2p12.planned"
  bool is_wht = false;
  plan::TreePtr tree;
  std::unique_ptr<fft::FftExecutor> fft;
  std::unique_ptr<wht::WhtExecutor> wht;
  AlignedBuffer<cplx> cbuf;
  AlignedBuffer<real_t> rbuf;
  index_t calls_per_sample = 1;
  std::size_t events_per_call = 1;
  std::vector<double> untraced;  ///< seconds per call, one entry per sample
  std::vector<double> traced;
  Attribution self;
  std::uint64_t traced_calls = 0;

  [[nodiscard]] index_t n() const { return tree->n; }
  [[nodiscard]] double work() const {
    const auto dn = static_cast<double>(n());
    return dn * std::log2(dn);
  }
  /// Share of a pass this case gets: proportional to n log n above 2^18, so
  /// out-of-cache cases collect similar sample counts; equal below.
  [[nodiscard]] double weight() const { return std::max(work(), 18.0 * (1 << 18)); }

  void build() {
    if (is_wht) {
      wht = std::make_unique<wht::WhtExecutor>(*tree);
      rbuf = AlignedBuffer<real_t>(n());
    } else {
      fft = std::make_unique<fft::FftExecutor>(*tree);
      cbuf = AlignedBuffer<cplx>(n());
    }
  }
  void release() {
    fft.reset();
    wht.reset();
    cbuf = {};
    rbuf = {};
  }
  void call() {
    if (is_wht) {
      wht->transform(rbuf.span());
    } else {
      fft->forward(cbuf.span());
    }
  }
};

Case make_case(std::string name, plan::TreePtr tree, bool is_wht = false) {
  Case c;
  c.name = std::move(name);
  c.tree = std::move(tree);
  c.is_wht = is_wht;
  return c;
}

/// DFT bins of x by direct long-double summation. The phase recurrence is
/// re-anchored every 1024 points so its drift stays far below tolerance().
std::vector<std::complex<long double>> direct_bins(std::span<const cplx> x,
                                                   const std::vector<index_t>& bins) {
  constexpr long double kTwoPi = 6.283185307179586476925286766559L;
  const auto n = static_cast<index_t>(x.size());
  std::vector<std::complex<long double>> out;
  for (const index_t k : bins) {
    const std::complex<long double> step = std::polar(1.0L, -kTwoPi * static_cast<long double>(k) /
                                                                static_cast<long double>(n));
    std::complex<long double> sum = 0, w = 1;
    for (index_t j = 0; j < n; ++j) {
      if (j % 1024 == 0) {
        const auto phase = static_cast<long double>((k * j) % n) / static_cast<long double>(n);
        w = std::polar(1.0L, -kTwoPi * phase);
      }
      sum += std::complex<long double>(x[static_cast<std::size_t>(j)]) * w;
      w *= step;
    }
    out.push_back(sum);
  }
  return out;
}

/// Seeded verification input of one FFT size, shared by all its trees.
AlignedBuffer<cplx> verification_input(index_t n, std::uint64_t seed) {
  AlignedBuffer<cplx> x(n);
  fill_random(x.span(), seed * 1'000'003 + static_cast<std::uint64_t>(n));
  return x;
}

/// Directly summed spot bins of one size's verification input.
struct SpotBins {
  std::vector<index_t> bins;
  std::vector<std::complex<long double>> ref;
};

SpotBins spot_bins(std::span<const cplx> x, std::uint64_t seed) {
  const auto n = static_cast<index_t>(x.size());
  SpotBins s;
  Xoshiro256 rng(seed ^ static_cast<std::uint64_t>(n));
  s.bins = {0, 1, n / 2, n - 1};
  for (int i = 0; i < 4; ++i) s.bins.push_back(static_cast<index_t>(rng.below(n)));
  s.ref = direct_bins(x, s.bins);
  return s;
}

/// Verify one case on seeded random input, in its own timing buffer (which
/// is zeroed again afterwards), outside any timed region.
void verify_case(Case& c, std::uint64_t seed, std::map<index_t, SpotBins>& spots, Report& rep) {
  const index_t n = c.n();
  const double tol = tolerance(n);
  ++rep.attempted;
  if (c.is_wht) {
    AlignedBuffer<real_t> x(n);
    fill_random(x.span(), seed * 7919 + static_cast<std::uint64_t>(n));
    std::copy(x.begin(), x.end(), c.rbuf.begin());
    c.wht->transform(c.rbuf.span());
    wht::wht_reference(x.span());
    double err = 0.0;
    for (index_t i = 0; i < n; ++i) err = std::max(err, std::abs(x[i] - c.rbuf[i]));
    rep.check(err <= tol, c.name + ": WHT differs from reference by " + std::to_string(err));
    std::fill(c.rbuf.begin(), c.rbuf.end(), 0.0);
    return;
  }
  const AlignedBuffer<cplx> x = verification_input(n, seed);
  auto it = spots.find(n);
  if (it == spots.end()) it = spots.emplace(n, spot_bins(x.span(), seed)).first;
  const SpotBins& s = it->second;
  AlignedBuffer<cplx>& y = c.cbuf;
  std::copy(x.begin(), x.end(), y.begin());
  c.fft->forward(y.span());

  double err = 0.0;
  for (std::size_t i = 0; i < s.bins.size(); ++i) {
    const std::complex<long double> d = std::complex<long double>(y[s.bins[i]]) - s.ref[i];
    err = std::max(err, static_cast<double>(std::abs(d)));
  }
  rep.check(err <= tol, c.name + ": spot bins off by " + std::to_string(err));
  if (n <= 4096) {
    AlignedBuffer<cplx> ref(n);
    fft::dft_reference(x.span(), ref.span());
    const double full = fft::max_abs_diff(ref.span(), y.span());
    rep.check(full <= tol, c.name + ": differs from reference DFT by " + std::to_string(full));
  }
  long double ex = 0, ey = 0;
  for (index_t i = 0; i < n; ++i) {
    ex += std::norm(x[i]);
    ey += std::norm(y[i]);
  }
  const double parseval = std::abs(static_cast<double>(ey / (ex * n)) - 1.0);
  rep.check(parseval <= 1e-11, c.name + ": Parseval ratio off by " + std::to_string(parseval));
  c.fft->inverse(y.span());
  const double round_trip = fft::max_abs_diff(x.span(), y.span());
  rep.check(round_trip <= 4.0 * tol / std::sqrt(static_cast<double>(n)),
            c.name + ": inverse round trip off by " + std::to_string(round_trip));
  std::fill(y.begin(), y.end(), cplx{});
}

/// After timing: the zero buffer must still hold zeros (DFT/WHT of 0 is 0).
void check_zero_output(const Case& c, Report& rep) {
  bool ok = true;
  if (c.is_wht) {
    for (const real_t v : c.rbuf) ok = ok && v == 0.0;
  } else {
    for (const cplx& v : c.cbuf) ok = ok && v == cplx{};
  }
  rep.check(ok, c.name + ": timed output is not the transform of zeros");
}

/// Warm the case up and size its samples. A call of a millisecond or more
/// is timed once (its cold start barely matters, and out-of-cache calls
/// take up to half a second); shorter ones are timed again warm. Later
/// rounds reuse the first round's sizing and warm only short calls.
void calibrate(Case& c, const std::vector<Case>& earlier) {
  const auto it = std::find_if(earlier.begin(), earlier.end(),
                               [&](const Case& e) { return e.name == c.name; });
  if (it != earlier.end()) {
    c.calls_per_sample = it->calls_per_sample;
    if (c.calls_per_sample > 1) c.call();
    return;
  }
  std::uint64_t t0 = obs::now_ns();
  c.call();
  double t = seconds_since(t0);
  if (t < 1e-3) {
    t0 = obs::now_ns();
    c.call();
    t = std::max(seconds_since(t0), 1e-9);
  }
  c.calls_per_sample = std::max<index_t>(1, static_cast<index_t>(std::ceil(kSampleTarget / t)));
}

/// Tracing state of the traced pass.
struct Tracer {
  SpanLog spans{true};
  std::vector<obs::Event> events;           ///< kept for the chrome trace
  std::size_t ring = std::size_t{1} << 18;  ///< obs events per thread ring
  double wall_s = 0.0;                      ///< wall time of the traced timing loops
  Attribution self;
};

/// Time `c` for about `seconds`, at least one sample. In a traced slice the
/// obs ring is reset first and attributed after; the call count is capped
/// so the slice's events fit in the ring.
void time_slice(Case& c, double seconds, Tracer* tr, Report& rep) {
  std::vector<double>& out = tr != nullptr ? c.traced : c.untraced;
  std::uint64_t max_calls = ~std::uint64_t{0};
  if (tr != nullptr) {
    obs::reset();
    max_calls = std::max<std::uint64_t>(1, tr->ring * 4 / 5 / c.events_per_call);
  }
  const std::uint64_t t_start = obs::now_ns();
  const auto deadline = t_start + static_cast<std::uint64_t>(seconds * 1e9);
  std::uint64_t calls = 0;
  const char* span_name = c.is_wht ? "wht.transform" : "fft.forward";
  do {
    const std::uint64_t t0 = obs::now_ns();
    for (index_t k = 0; k < c.calls_per_sample; ++k) c.call();
    const std::uint64_t t1 = obs::now_ns();
    out.push_back(static_cast<double>(t1 - t0) * 1e-9 / static_cast<double>(c.calls_per_sample));
    calls += static_cast<std::uint64_t>(c.calls_per_sample);
    if (tr != nullptr) tr->spans.add(span_name, t0, t1);
  } while (obs::now_ns() < deadline &&
           calls + static_cast<std::uint64_t>(c.calls_per_sample) <= max_calls);
  rep.attempted += calls;
  if (tr == nullptr) return;
  tr->wall_s += seconds_since(t_start);
  const obs::Snapshot snap = obs::snapshot();
  const Attribution a = attribute(snap);
  c.self.add(a);
  tr->self.add(a);
  c.traced_calls += calls;
  keep_events(tr->events, snap);
}

/// Count the obs events one call emits (kept plus overwritten) and grow the
/// ring until one sample's calls fit: a 2^22 call emits over half a million.
void count_events(Case& c, Tracer& tr) {
  obs::reset();
  c.call();
  const obs::Snapshot snap = obs::snapshot();
  c.events_per_call = std::max<std::size_t>(
      1, snap.events.size() + snap.counter(obs::Counter::events_dropped));
  const std::size_t need =
      std::bit_ceil(c.events_per_call * static_cast<std::size_t>(c.calls_per_sample) * 5 / 4);
  if (need > tr.ring) {
    tr.ring = need;
    obs_start(need);
  }
}

struct Summary {
  double mflops = 0.0, p50_us = 0.0;
};

Summary summarize(const std::vector<Case>& cases, bool traced) {
  std::vector<double> rates, p50;
  for (const Case& c : cases) {
    const std::vector<double>& s = traced ? c.traced : c.untraced;
    const double med = quantile(s, 0.5);
    p50.push_back(med * 1e6);
    if (!c.is_wht) rates.push_back(5.0 * c.work() / med / 1e6);
  }
  return {geomean(rates), geomean(p50)};
}

void report_layers(const std::string& workload, const std::vector<Case>& cases,
                   const std::vector<std::string>& attributed, const Tracer& tr,
                   const Summary& untraced, const Summary& traced, Report& rep) {
  for (const Case& c : cases) {
    const double med = quantile(c.untraced, 0.5);
    if (c.is_wht) {
      rep.layer("wht." + c.name + ".ns_per_point", med * 1e9 / static_cast<double>(c.n()), "ns");
    } else {
      rep.layer("fft." + c.name + ".mflops", 5.0 * c.work() / med / 1e6, "MFLOPS");
    }
  }
  for (const Case& c : cases) {
    if (std::find(attributed.begin(), attributed.end(), c.name) == attributed.end()) continue;
    const double per_call_us =
        1e6 / static_cast<double>(std::max<std::uint64_t>(1, c.traced_calls));
    const std::string p = "fft." + c.name + ".self_us.";
    rep.layer(p + "leaf", c.self.leaf_s * per_call_us, "us");
    rep.layer(p + "twiddle", c.self.twiddle_s * per_call_us, "us");
    if (plan::ddl_node_count(*c.tree) > 0) {
      rep.layer(p + "reorg", c.self.reorg_s * per_call_us, "us");
    }
    rep.layer(p + "perm", c.self.perm_s * per_call_us, "us");
  }
  rep.layer("obs.coverage." + workload, 100.0 * tr.self.named_s() / tr.wall_s, "%");
  rep.layer("obs.span_coverage." + workload, 100.0 * tr.spans.top_level_seconds() / tr.wall_s, "%");
  rep.layer("obs.overhead_pct." + workload, 100.0 * (traced.p50_us / untraced.p50_us - 1.0), "%");
  if (tr.self.dropped > 0) rep.errors.push_back("obs ring overflowed; attribution incomplete");
}

/// Shared timing loop: `make_round` builds one round's cases (planning
/// inside it counts as set-up) and returns the set-up seconds it spent;
/// `grouped` keeps all cases alive together and interleaves them, otherwise
/// each case is built, timed and released alone to bound memory.
template <typename MakeRound>
Report run_transforms(const Options& opts, const std::string& workload, bool grouped,
                      const std::vector<std::string>& attributed, MakeRound&& make_round) {
  Report rep;
  std::vector<double> setup_s;
  double build_s = 0.0;
  std::vector<Case> all;  // cases of every round, merged by name
  std::map<index_t, SpotBins> spots;
  Tracer tracer;

  for (int round = 0; round < opts.setups(); ++round) {
    std::vector<Case> cases;
    double setup = make_round(round, cases, rep);
    double total_weight = 0.0;
    for (const Case& c : cases) total_weight += c.weight();
    const double round_s = opts.pass_seconds() / opts.setups();

    const std::size_t group = grouped ? cases.size() : 1;
    for (std::size_t g0 = 0; g0 < cases.size(); g0 += group) {
      const std::size_t g1 = std::min(cases.size(), g0 + group);
      const std::uint64_t t0 = obs::now_ns();
      for (std::size_t i = g0; i < g1; ++i) cases[i].build();
      const double built = seconds_since(t0);
      setup += built;
      if (round == 0) build_s += built;
      for (std::size_t i = g0; i < g1; ++i) {
        if (round == 0) verify_case(cases[i], opts.seed, spots, rep);
        calibrate(cases[i], all);
      }
      // Interleave the group's cases over a few passes so slow drift on a
      // shared host spreads over all of them.
      const int passes = g1 - g0 > 1 ? 4 : 1;
      for (int traced = 0; traced <= (opts.trace ? 1 : 0); ++traced) {
        if (traced != 0) {
          obs_start(tracer.ring);
          for (std::size_t i = g0; i < g1; ++i) count_events(cases[i], tracer);
        }
        for (int p = 0; p < passes; ++p) {
          for (std::size_t i = g0; i < g1; ++i) {
            const double share = round_s * cases[i].weight() / total_weight / passes;
            time_slice(cases[i], share, traced != 0 ? &tracer : nullptr, rep);
          }
        }
        obs::enable(false);
      }
      for (std::size_t i = g0; i < g1; ++i) {
        check_zero_output(cases[i], rep);
        if (!grouped) cases[i].release();
      }
    }
    setup_s.push_back(setup);
    for (Case& c : cases) {
      c.release();
      auto it =
          std::find_if(all.begin(), all.end(), [&](const Case& a) { return a.name == c.name; });
      if (it == all.end()) {
        all.push_back(std::move(c));
      } else {
        it->untraced.insert(it->untraced.end(), c.untraced.begin(), c.untraced.end());
      }
    }
  }
  const Summary untraced = summarize(all, false);
  rep.metric("mflops", untraced.mflops, "MFLOPS");
  rep.metric("p50_us", untraced.p50_us, "us");
  rep.metric("setup_s", quantile(setup_s, 0.5), "s");
  rep.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  for (const Case& c : all) {
    std::cout << "case " << c.name << ": " << c.untraced.size() << " samples, median "
              << quantile(c.untraced, 0.5) * 1e6 << " us/call, tree " << plan::to_string(*c.tree)
              << "\n";
  }
  if (opts.trace) {
    rep.layer("fft.build_ms." + workload, build_s * 1e3, "ms");
    report_layers(workload, all, attributed, tracer, untraced, summarize(all, true), rep);
    if (!opts.trace_out.empty() &&
        !write_chrome_trace(opts.trace_out, tracer.events, tracer.spans)) {
      rep.errors.push_back("cannot write " + opts.trace_out);
    }
  }
  return rep;
}

}  // namespace

Report run_incache(const Options& opts) {
  const int max_log = opts.smoke ? 12 : 16;
  std::vector<std::string> first_trees;
  std::uint64_t fallbacks = 0;
  int ddl_nodes = 0;
  std::vector<std::pair<std::string, double>> plan_s;

  auto make_round = [&](int round, std::vector<Case>& cases, Report& rep) {
    // A fresh planner and in-memory CostDb every round, no Wisdom: planning
    // runs on the cold-start cache model, which is deterministic.
    const std::uint64_t t0 = obs::now_ns();
    fft::PlannerOptions po;
    po.cache_model.cold_start_model = true;
    fft::FftPlanner planner(po);
    std::vector<std::string> trees;
    ddl_nodes = 0;
    for (int lg = 8; lg <= max_log; lg += 2) {
      const index_t n = index_t{1} << lg;
      const std::uint64_t tp = obs::now_ns();
      plan::TreePtr tree = planner.plan(n, fft::Strategy::ddl_dp);
      if (round == 0) plan_s.emplace_back(size_label(n), seconds_since(tp));
      trees.push_back(plan::to_string(*tree));
      ddl_nodes += plan::ddl_node_count(*tree);
      cases.push_back(make_case(size_label(n) + ".planned", std::move(tree)));
      cases.push_back(make_case(size_label(n) + ".rightmost", fft::rightmost_tree(n, 32)));
    }
    const double setup = seconds_since(t0);
    fallbacks = planner.cost_stats().model_fallbacks;
    const index_t nw = index_t{1} << 14;
    cases.push_back(make_case(size_label(nw) + ".bal", wht::balanced_wht_tree(nw, 64, 0), true));
    if (round == 0) {
      first_trees = trees;
    } else if (trees != first_trees) {
      rep.errors.push_back("cold-start planning chose different trees across set-ups");
    }
    return setup;
  };
  Report rep = run_transforms(opts, "incache", true, {"2p12.planned", "2p16.planned"}, make_round);
  for (std::size_t i = 0; i < first_trees.size(); ++i) {
    rep.fact("planned." + size_label(index_t{1} << (8 + 2 * i)), first_trees[i]);
  }
  rep.fact("planner.model_fallbacks", std::to_string(fallbacks));
  if (opts.trace) {
    for (const auto& [size, s] : plan_s) rep.layer("planner.plan_s." + size, s, "s");
    rep.layer("planner.model_fallbacks", static_cast<double>(fallbacks), "count");
    rep.layer("planner.ddl_nodes", ddl_nodes, "count");
  }
  return rep;
}

Report run_outcache(const Options& opts) {
  struct Shape {
    const char* name;
    plan::TreePtr (*make)(index_t);
  };
  static const Shape kShapes[] = {
      {"rightmost", [](index_t n) { return fft::rightmost_tree(n, 32); }},
      {"sdl_bal", [](index_t n) { return fft::balanced_tree(n, 32, 0); }},
      {"ddl_bal", [](index_t n) { return fft::balanced_tree(n, 32, n); }},
      {"ddlf_bal",
       [](index_t n) {
         plan::TreePtr t = fft::balanced_tree(n, 32, n);
         t->fused = true;  // same shape, root split runs the fused twiddle+scatter
         return t;
       }},
  };
  auto make_round = [](int, std::vector<Case>& cases, Report&) {
    for (const int lg : {18, 20, 22}) {
      const index_t n = index_t{1} << lg;
      for (const Shape& s : kShapes) {
        cases.push_back(make_case(size_label(n) + "." + s.name, s.make(n)));
      }
    }
    const index_t nw = index_t{1} << 20;
    cases.push_back(make_case(size_label(nw) + ".sdl", wht::balanced_wht_tree(nw, 64, 0), true));
    cases.push_back(make_case(size_label(nw) + ".ddl", wht::balanced_wht_tree(nw, 64, nw), true));
    return 0.0;
  };
  std::vector<std::string> attributed;
  for (const char* size : {"2p20", "2p22"}) {
    for (const Shape& s : kShapes) attributed.push_back(std::string(size) + "." + s.name);
  }
  Report rep = run_transforms(opts, "outcache", false, attributed, make_round);
  if (opts.trace) {
    // Predicted L2 misses of each 2^20 tree on a fixed model of the
    // reference host (48 KiB 12-way L1d, 2 MiB 16-way L2, 64 B lines), so
    // the counts are exact and host-independent. Each analysis takes ~3 s
    // and none is timed, so the four run side by side.
    verify::cachepred::AnalyzeOptions ao;
    ao.l1 = cache::CacheConfig{.size_bytes = 48 * 1024, .line_bytes = 64, .associativity = 12};
    ao.l2 = cache::CacheConfig{
        .size_bytes = 2 * 1024 * 1024, .line_bytes = 64, .associativity = 16};
    std::vector<std::future<std::uint64_t>> misses;
    for (const Shape& s : kShapes) {
      misses.push_back(std::async(std::launch::async, [&s, &ao] {
        return verify::cachepred::analyze_plan(*s.make(index_t{1} << 20), ao).total_l2.misses;
      }));
    }
    for (std::size_t i = 0; i < misses.size(); ++i) {
      const std::uint64_t m = misses[i].get();
      rep.layer(std::string("planner.pred_l2_misses.2p20.") + kShapes[i].name,
                static_cast<double>(m), "count");
      rep.fact(std::string("pred_l2_misses.2p20.") + kShapes[i].name, std::to_string(m));
    }
  }
  return rep;
}

}  // namespace ddlbench
