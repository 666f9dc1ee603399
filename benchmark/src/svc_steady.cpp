// svc_steady: open-loop service traffic from one generator thread.
//
// Seeded Poisson arrivals at 6000 req/s (conditioned on their count, see
// schedule()) — 80% FFT n=1024 for tenant 1, 15% FFT n=16384 and 5% WHT
// n=4096 for tenant 2, each with a 50 ms deadline — into a
// TransformService with the default ServiceConfig. A request's
// latency runs from its *scheduled* send to done_ns, so a stall that delays
// later sends is charged to them. The service reaches the same executors
// through forward_batch on mixed sizes, so a change that speeds a single
// forward() but hurts batching shows here.
//
// Every request carries an analytic signal whose transform is n at one
// seeded bin and zero elsewhere (a complex exponential for the FFT, a Walsh
// function for the WHT), so each result is checked in O(n) and buffers can
// be reused without the values growing.

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <future>
#include <iostream>
#include <memory>
#include <numbers>

#include "bench.hpp"
#include "ddl/common/aligned.hpp"
#include "ddl/common/rng.hpp"
#include "ddl/svc/service.hpp"

namespace ddlbench {
namespace {

using namespace ddl;

constexpr double kRate = 6000.0;               ///< requests per second
constexpr std::uint64_t kDeadlineNs = 50'000'000;
constexpr std::uint64_t kLeadNs = 2'000'000;   ///< first send this long after the pass starts

struct Class {
  const char* name;
  svc::Kind kind;
  index_t n;
  std::uint32_t tenant;
  double share;      ///< of all requests
  std::size_t ring;  ///< buffers in flight; > rate * share * deadline
};

constexpr std::array<Class, 3> kClasses{{
    {"fft1024", svc::Kind::fft, 1024, 1, 0.80, 512},
    {"fft16384", svc::Kind::fft, 16384, 2, 0.15, 128},
    {"wht4096", svc::Kind::wht, 4096, 2, 0.05, 64},
}};

struct Arrival {
  std::uint64_t offset_ns = 0;
  std::size_t cls = 0;
  index_t bin = 0;  ///< where the request's transform peaks
};

/// A Poisson process conditioned on its count: rate * seconds arrival times
/// drawn uniformly and sorted, carrying exactly the mix's class shares in
/// seeded order. The condition keeps the offered work identical for every
/// seed, so only the arrival pattern and the signals vary.
std::vector<Arrival> schedule(std::uint64_t seed, double seconds) {
  Xoshiro256 rng(seed);
  const auto total = static_cast<std::size_t>(kRate * seconds);
  std::vector<Arrival> out(total);
  std::vector<std::uint64_t> times(total);
  for (std::uint64_t& t : times) t = static_cast<std::uint64_t>(rng.uniform01() * seconds * 1e9);
  std::sort(times.begin(), times.end());
  std::size_t next = 0;
  for (std::size_t c = 0; c < kClasses.size(); ++c) {
    const std::size_t count =
        c + 1 == kClasses.size()
            ? total - next
            : static_cast<std::size_t>(kClasses[c].share * static_cast<double>(total));
    for (std::size_t i = 0; i < count; ++i) out[next++].cls = c;
  }
  for (std::size_t i = total; i > 1; --i) std::swap(out[i - 1].cls, out[rng.below(i)].cls);
  for (std::size_t i = 0; i < total; ++i) {
    out[i].offset_ns = times[i];
    const auto n = static_cast<std::uint64_t>(kClasses[out[i].cls].n);
    out[i].bin = static_cast<index_t>(rng.below(n));
  }
  return out;
}

double nominal_flops(const Class& c) {
  const auto n = static_cast<double>(c.n);
  return (c.kind == svc::Kind::fft ? 5.0 : 1.0) * n * std::log2(n);
}

/// One reusable request buffer.
struct Slot {
  AlignedBuffer<cplx> c;
  AlignedBuffer<real_t> r;
  std::future<svc::Result> fut;
  std::size_t req = 0;
};

/// Buffers and signal table of one request class.
struct Lane {
  const Class* cls = nullptr;
  std::vector<cplx> phase;  ///< e^{+2 pi i m / n}
  std::vector<Slot> slots;
  std::size_t next = 0;

  explicit Lane(const Class& c) : cls(&c) {
    const index_t n = c.n;
    if (c.kind == svc::Kind::fft) {
      for (index_t m = 0; m < n; ++m) {
        phase.push_back(std::polar(
            1.0, 2.0 * std::numbers::pi * static_cast<double>(m) / static_cast<double>(n)));
      }
    }
    slots.resize(c.ring);
    for (Slot& s : slots) {
      if (c.kind == svc::Kind::fft) {
        s.c = AlignedBuffer<cplx>(n);
      } else {
        s.r = AlignedBuffer<real_t>(n);
      }
    }
  }

  void fill(Slot& s, index_t bin) const {
    const index_t n = cls->n;
    if (cls->kind == svc::Kind::fft) {
      for (index_t j = 0; j < n; ++j) s.c[j] = phase[static_cast<std::size_t>((bin * j) % n)];
    } else {
      for (index_t j = 0; j < n; ++j) {
        s.r[j] = (std::popcount(static_cast<std::uint64_t>(j & bin)) & 1) != 0 ? -1.0 : 1.0;
      }
    }
  }

  /// Largest deviation from n * delta(bin), relative to n.
  [[nodiscard]] double error(const Slot& s, index_t bin) const {
    const index_t n = cls->n;
    double err2 = 0.0;  // squared magnitudes: std::abs(complex) is a slow hypot
    for (index_t k = 0; k < n; ++k) {
      const double want = k == bin ? static_cast<double>(n) : 0.0;
      const double d2 = cls->kind == svc::Kind::fft ? std::norm(s.c[k] - cplx{want, 0.0})
                                                    : (s.r[k] - want) * (s.r[k] - want);
      err2 = std::max(err2, d2);
    }
    return std::sqrt(err2) / static_cast<double>(n);
  }

  svc::Request request(Slot& s, std::uint64_t deadline_ns) const {
    svc::Request req;
    req.kind = cls->kind;
    req.cdata = s.c.span();
    req.rdata = s.r.span();
    req.deadline_ns = deadline_ns;
    req.tenant = cls->tenant;
    return req;
  }
};

struct Outcome {
  std::vector<double> latency_s;  ///< failed requests count as the deadline
  std::array<std::vector<double>, kClasses.size()> class_latency_s;
  std::array<std::uint64_t, kClasses.size()> requests{};
  std::vector<double> queue_s, exec_s, submit_s, late_s;
  double ok_flops = 0.0;
  double wall_s = 0.0;
};

/// Send `arrivals` open loop and collect every result. A slot is reused
/// only after its previous request resolved (rings are sized so that wait
/// is normally zero; when it is not, the lateness shows in late_s).
Outcome run_pass(svc::TransformService& service, std::vector<Lane>& lanes,
                 const std::vector<Arrival>& arrivals, SpanLog& spans, Report& rep) {
  Outcome o;
  std::vector<std::uint64_t> due(arrivals.size()), sub0(arrivals.size()), sub1(arrivals.size());

  const auto finish = [&](Lane& lane, Slot& s) {
    const std::uint64_t t0 = obs::now_ns();
    const svc::Result r = s.fut.get();
    const Arrival& a = arrivals[s.req];
    const bool ok = r.status == svc::Status::ok && lane.error(s, a.bin) <= 1e-9;
    rep.check(ok, std::string(lane.cls->name) + " request " + std::to_string(s.req) + ": " +
                      (r.status == svc::Status::ok ? "wrong output" : svc::status_name(r.status)));
    const double latency =
        ok ? static_cast<double>(r.done_ns - due[s.req]) * 1e-9 : kDeadlineNs * 1e-9;
    o.latency_s.push_back(latency);
    o.class_latency_s[a.cls].push_back(latency);
    if (ok) {
      o.ok_flops += nominal_flops(*lane.cls);
      o.queue_s.push_back(static_cast<double>(r.start_ns - r.submit_ns) * 1e-9);
      o.exec_s.push_back(static_cast<double>(r.done_ns - r.start_ns) * 1e-9);
      if (spans.on()) {
        // One async track per request; its phases share the request id.
        const std::uint64_t id = spans.new_id();
        spans.add("request", due[s.req], r.done_ns, 0, true, id);
        spans.add("submit", sub0[s.req], sub1[s.req], id, true, id);
        spans.add("queue", r.submit_ns, r.start_ns, id, true, id);
        spans.add("exec", r.start_ns, r.done_ns, id, true, id);
      }
    }
    spans.add("gen.reap", t0, obs::now_ns());
  };

  const std::uint64_t t_begin = obs::now_ns();
  const std::uint64_t t_start = t_begin + kLeadNs;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const Arrival& a = arrivals[i];
    due[i] = t_start + a.offset_ns;
    const std::uint64_t tw = obs::now_ns();
    while (obs::now_ns() < due[i]) {
    }
    spans.add("gen.wait", tw, obs::now_ns());
    Lane& lane = lanes[a.cls];
    Slot& slot = lane.slots[lane.next++ % lane.slots.size()];
    if (slot.fut.valid()) finish(lane, slot);
    const std::uint64_t tf = obs::now_ns();
    lane.fill(slot, a.bin);
    sub0[i] = obs::now_ns();
    spans.add("gen.fill", tf, sub0[i]);
    slot.req = i;
    slot.fut = service.submit(lane.request(slot, due[i] + kDeadlineNs));
    sub1[i] = obs::now_ns();
    spans.add("gen.submit", sub0[i], sub1[i]);
    o.submit_s.push_back(static_cast<double>(sub1[i] - sub0[i]) * 1e-9);
    o.late_s.push_back(static_cast<double>(sub0[i] - due[i]) * 1e-9);
    ++o.requests[a.cls];
  }
  for (Lane& lane : lanes) {
    for (Slot& s : lane.slots) {
      if (s.fut.valid()) finish(lane, s);
    }
  }
  o.wall_s = seconds_since(t_begin);
  rep.attempted += arrivals.size();
  return o;
}

/// One request per class through a fresh service, so every size is planned
/// and its executor built before timing.
void warm_up(svc::TransformService& service, std::vector<Lane>& lanes, Report& rep) {
  for (Lane& lane : lanes) {
    Slot& s = lane.slots.front();
    const index_t bin = lane.cls->n / 3;
    lane.fill(s, bin);
    const svc::Result r = service.submit(lane.request(s, 0)).get();
    ++rep.attempted;
    rep.check(r.status == svc::Status::ok && lane.error(s, bin) <= 1e-9,
              std::string("warm-up ") + lane.cls->name + " failed");
  }
}

}  // namespace

Report run_svc_steady(const Options& opts) {
  Report rep;
  std::vector<Lane> lanes;
  for (const Class& c : kClasses) lanes.emplace_back(c);

  std::vector<double> setup_s;
  std::unique_ptr<svc::TransformService> service;
  for (int r = 0; r < opts.setups(); ++r) {
    service.reset();
    const std::uint64_t t0 = obs::now_ns();
    service = std::make_unique<svc::TransformService>(svc::ServiceConfig{});
    warm_up(*service, lanes, rep);
    setup_s.push_back(seconds_since(t0));
  }

  // Two seconds of untimed traffic first: on the reference host the first
  // seconds of open-loop traffic into a fresh service sometimes ran at up to
  // twice the median latency (p50 490-540 us against 280 us), however long
  // the process had idled before; half a second of warm-up was not enough.
  SpanLog no_spans(false);
  run_pass(*service, lanes, schedule(opts.seed + 1'000'003, 2.0), no_spans, rep);
  const std::vector<Arrival> arrivals = schedule(opts.seed, opts.pass_seconds());
  const Outcome main = run_pass(*service, lanes, arrivals, no_spans, rep);
  const double main_p50 = quantile(main.latency_s, 0.5) * 1e6;
  rep.metric("mflops", main.ok_flops / main.wall_s / 1e6, "MFLOPS");
  rep.metric("p50_us", main_p50, "us");
  rep.metric("setup_s", quantile(setup_s, 0.5), "s");
  rep.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  for (std::size_t c = 0; c < kClasses.size(); ++c) {
    rep.fact(std::string("requests.") + kClasses[c].name, std::to_string(main.requests[c]));
  }
  std::cout << "requests: " << main.latency_s.size() << ", generator late p99 "
            << quantile(main.late_s, 0.99) * 1e6 << " us\n";

  if (opts.trace) {
    SpanLog spans(true);
    const svc::TransformService::Stats before = service->stats();
    // The batcher records while the generator runs, so the ring must hold the
    // whole pass: snapshots are only safe once the service is idle. One
    // request per class makes the batcher allocate its 40 MB ring before the
    // pass; doing it inside the pass stalled the queue past the deadline.
    obs_start(std::size_t{1} << 20);
    warm_up(*service, lanes, rep);
    obs::reset();
    const Outcome tr =
        run_pass(*service, lanes, schedule(opts.seed + 1, opts.pass_seconds()), spans, rep);
    obs::enable(false);
    const obs::Snapshot snap = obs::snapshot();
    const Attribution self = attribute(snap);
    const svc::TransformService::Stats after = service->stats();
    const auto batches = static_cast<double>(after.batches - before.batches);

    rep.layer("svc.queue_us.p50", quantile(tr.queue_s, 0.5) * 1e6, "us");
    rep.layer("svc.queue_us.p99", quantile(tr.queue_s, 0.99) * 1e6, "us");
    rep.layer("svc.exec_us.p50", quantile(tr.exec_s, 0.5) * 1e6, "us");
    rep.layer("svc.exec_us.p99", quantile(tr.exec_s, 0.99) * 1e6, "us");
    rep.layer("svc.submit_call_us.p50", quantile(tr.submit_s, 0.5) * 1e6, "us");
    rep.layer("svc.batch_occupancy",
              static_cast<double>(after.batched_requests - before.batched_requests) / batches,
              "requests");
    rep.layer("svc.batches", batches, "count");
    rep.layer("svc.queue_peak", static_cast<double>(after.queue_peak), "count");
    rep.layer("svc.fallback_plans", static_cast<double>(after.fallback_plans), "count");
    for (std::size_t c = 0; c < kClasses.size(); ++c) {
      rep.layer(std::string("svc.class_p50_us.") + kClasses[c].name,
                quantile(tr.class_latency_s[c], 0.5) * 1e6, "us");
    }
    rep.layer("svc.gen_late_us.p99", quantile(tr.late_s, 0.99) * 1e6, "us");
    rep.layer("svc.request_us.p99", quantile(main.latency_s, 0.99) * 1e6, "us");
    rep.layer("svc.request_us.p999", quantile(main.latency_s, 0.999) * 1e6, "us");
    rep.layer("obs.coverage.svc_steady", 100.0 * self.named_s() / tr.wall_s, "%");
    rep.layer("obs.span_coverage.svc_steady", 100.0 * spans.top_level_seconds() / tr.wall_s, "%");
    rep.layer("obs.overhead_pct.svc_steady",
              100.0 * (quantile(tr.latency_s, 0.5) * 1e6 / main_p50 - 1.0), "%");
    if (self.dropped > 0) rep.errors.push_back("obs ring overflowed; attribution incomplete");
    std::vector<obs::Event> events;
    keep_events(events, snap);
    if (!opts.trace_out.empty() && !write_chrome_trace(opts.trace_out, events, spans)) {
      rep.errors.push_back("cannot write " + opts.trace_out);
    }
  }
  return rep;
}

}  // namespace ddlbench
