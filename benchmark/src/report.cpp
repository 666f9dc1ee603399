#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench.hpp"
#include "ddl/codelets/codelets.hpp"
#include "ddl/obs/export.hpp"

namespace ddlbench {

using ddl::obs::Stage;

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  ++failed;
  if (errors.size() < 32) errors.push_back(what);
}

namespace {

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string str(const std::string& s) {
  std::string out(1, '"');
  out += ddl::obs::json_escape(s);
  out += '"';
  return out;
}

void metric_map(std::ostream& os, const std::vector<Metric>& ms) {
  os << "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    os << (i ? "," : "") << str(ms[i].name) << ":{\"value\":" << num(ms[i].value)
       << ",\"unit\":" << str(ms[i].unit) << "}";
  }
  os << "}";
}

}  // namespace

void Report::print(const Options& opts) const {
  std::vector<std::string> errs = errors;
  for (const auto* list : {&metrics, &layers}) {
    for (const Metric& m : *list) {
      std::cout << "metric " << m.name << " = " << num(m.value) << " " << m.unit << "\n";
      if (!std::isfinite(m.value)) errs.push_back("non-finite metric " + m.name);
    }
  }
  for (const auto& [k, v] : determinism) std::cout << "fact " << k << " = " << v << "\n";
  for (const std::string& e : errs) std::cerr << "error: " << e << "\n";

  const bool correct = errs.empty();
  std::ostringstream os;
  os << "{\"workload\":" << str(opts.workload) << ",\"seed\":" << opts.seed
     << ",\"seconds\":" << num(opts.seconds) << ",\"trace\":" << (opts.trace ? "true" : "false")
     << ",\"smoke\":" << (opts.smoke ? "true" : "false")
     << ",\"isa\":" << str(ddl::codelets::isa_name(ddl::codelets::active_isa()))
     << ",\"l1d_bytes\":" << sysconf(_SC_LEVEL1_DCACHE_SIZE)
     << ",\"l2_bytes\":" << sysconf(_SC_LEVEL2_CACHE_SIZE)
     << ",\"l3_bytes\":" << sysconf(_SC_LEVEL3_CACHE_SIZE)
     << ",\"correct\":" << (correct ? "true" : "false") << ",\"attempted\":" << attempted
     << ",\"failed\":" << failed << ",\"errors\":[";
  for (std::size_t i = 0; i < errs.size(); ++i) os << (i ? "," : "") << str(errs[i]);
  os << "],\"metrics\":";
  metric_map(os, metrics);
  os << ",\"layers\":";
  metric_map(os, layers);
  os << ",\"determinism\":{";
  for (std::size_t i = 0; i < determinism.size(); ++i) {
    os << (i ? "," : "") << str(determinism[i].first) << ":" << str(determinism[i].second);
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  const std::size_t idx = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx), v.end());
  return v[idx];
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double seconds_since(std::uint64_t t0_ns) {
  return static_cast<double>(ddl::obs::now_ns() - t0_ns) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::uint64_t SpanLog::add(const char* name, std::uint64_t t0, std::uint64_t t1,
                           std::uint64_t parent, bool async, std::uint64_t id) {
  if (!on_) return 0;
  if (id == 0) id = next_id_++;
  if (parent == 0 && !async) top_ns_ += static_cast<double>(t1 - t0);
  if (spans_.size() < kMaxKept) spans_.push_back({name, t0, t1, id, parent, async});
  return id;
}

void Attribution::add(const Attribution& o) {
  leaf_s += o.leaf_s;
  twiddle_s += o.twiddle_s;
  reorg_s += o.reorg_s;
  perm_s += o.perm_s;
  stream_pack_s += o.stream_pack_s;
  stream_fdl_s += o.stream_fdl_s;
  stream_ola_s += o.stream_ola_s;
  svc_staging_s += o.svc_staging_s;
  dropped += o.dropped;
}

Attribution attribute(const ddl::obs::Snapshot& snap) {
  Attribution a;
  for (const ddl::obs::StageStats& s : ddl::obs::summarize(snap)) {
    switch (s.stage) {
      case Stage::leaf_cols:
      case Stage::fft_cols:
      case Stage::fft_rows:
      case Stage::wht_cols:
      case Stage::wht_rows:
      case Stage::stockham_leaf: a.leaf_s += s.self_seconds; break;
      case Stage::twiddle_rows:
      case Stage::twiddle_cols: a.twiddle_s += s.self_seconds; break;
      case Stage::reorg_gather:
      case Stage::reorg_scatter:
      case Stage::twiddle_scatter: a.reorg_s += s.self_seconds; break;
      case Stage::stride_perm: a.perm_s += s.self_seconds; break;
      case Stage::stream_pack: a.stream_pack_s += s.self_seconds; break;
      case Stage::stream_fdl: a.stream_fdl_s += s.self_seconds; break;
      case Stage::stream_ola: a.stream_ola_s += s.self_seconds; break;
      case Stage::svc_gather:
      case Stage::svc_scatter: a.svc_staging_s += s.self_seconds; break;
      default: break;  // call envelopes and scheduling stages
    }
  }
  a.dropped = snap.counter(ddl::obs::Counter::events_dropped);
  return a;
}

void keep_events(std::vector<ddl::obs::Event>& kept, const ddl::obs::Snapshot& snap) {
  constexpr std::size_t kMaxKept = 300'000;
  const std::size_t room = kMaxKept - std::min(kMaxKept, kept.size());
  const std::size_t take = std::min(room, snap.events.size());
  kept.insert(kept.end(), snap.events.begin(),
              snap.events.begin() + static_cast<std::ptrdiff_t>(take));
}

void obs_start(std::size_t ring_events) {
  ddl::obs::set_ring_capacity(ring_events);
  ddl::obs::reset();
  ddl::obs::enable(true);
  // A thread allocates its ring at its first event after a capacity change;
  // a zero count does that now for this thread instead of inside a timed call.
  ddl::obs::count(ddl::obs::Counter::events_dropped, 0);
}

bool write_chrome_trace(const std::string& path, const std::vector<ddl::obs::Event>& events,
                        const SpanLog& spans) {
  std::ofstream os(path);
  if (!os) return false;
  std::uint64_t base = ~std::uint64_t{0};
  for (const auto& e : events) base = std::min(base, e.t0_ns);
  for (const Span& s : spans.spans()) base = std::min(base, s.t0);
  const auto us = [base](std::uint64_t t) { return num(static_cast<double>(t - base) * 1e-3); };

  os << "{\"traceEvents\":[\n";
  bool first = true;
  const auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };
  for (const auto& e : events) {
    sep();
    os << "{\"name\":" << str(ddl::obs::stage_name(e.stage)) << ",\"cat\":\"obs\",\"ph\":\"X\""
       << ",\"ts\":" << us(e.t0_ns)
       << ",\"dur\":" << num(static_cast<double>(e.t1_ns - e.t0_ns) * 1e-3)
       << ",\"pid\":1,\"tid\":" << e.tid << ",\"args\":{\"a\":" << e.a << ",\"b\":" << e.b << "}}";
  }
  for (const Span& s : spans.spans()) {
    sep();
    if (s.async) {
      // Requests overlap in time, so they and their phases are async slices
      // sharing the request id.
      os << "{\"name\":" << str(s.name) << ",\"cat\":\"request\",\"ph\":\"b\",\"id\":" << s.id
         << ",\"ts\":" << us(s.t0) << ",\"pid\":2,\"tid\":1},\n"
         << "{\"name\":" << str(s.name) << ",\"cat\":\"request\",\"ph\":\"e\",\"id\":" << s.id
         << ",\"ts\":" << us(s.t1) << ",\"pid\":2,\"tid\":1}";
    } else {
      os << "{\"name\":" << str(s.name) << ",\"cat\":\"bench\",\"ph\":\"X\",\"ts\":" << us(s.t0)
         << ",\"dur\":" << num(static_cast<double>(s.t1 - s.t0) * 1e-3)
         << ",\"pid\":2,\"tid\":0,\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent << "}}";
    }
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

}  // namespace ddlbench
