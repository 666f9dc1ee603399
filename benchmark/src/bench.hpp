#pragma once
// Shared pieces of the ddlbench workloads: run options, the report every
// workload process fills in, statistics, and benchmark-side trace spans.
//
// A workload process measures with ddl::obs tracing off. With --trace it
// instead runs a quarter-length untraced pass, then a quarter-length traced
// pass that records spans around every public call the benchmark makes and
// attributes time to obs stages; the report then carries per-layer metrics.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ddl/obs/obs.hpp"

namespace ddlbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured time of an untraced run
  bool trace = false;
  bool smoke = false;     ///< 1/20 length, one set-up, incache planning capped at 2^12
  std::string trace_out;  ///< chrome trace path for traced runs ("" = none)

  /// Measured time of one pass: the full run, a quarter in traced runs,
  /// and a twentieth of either in smoke mode.
  [[nodiscard]] double pass_seconds() const {
    return seconds * (trace ? 0.25 : 1.0) * (smoke ? 0.05 : 1.0);
  }
  /// Set-ups per run; set-up time is reported as their median.
  [[nodiscard]] int setups() const { return trace || smoke ? 1 : 3; }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one workload process reports. Printed as one JSON line.
struct Report {
  std::vector<Metric> metrics;  ///< end-to-end (untraced passes)
  std::vector<Metric> layers;   ///< per-layer (traced runs only)
  std::vector<std::pair<std::string, std::string>> determinism;  ///< must repeat exactly
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit) {
    layers.push_back({std::move(name), value, std::move(unit)});
  }
  void fact(std::string key, std::string value) {
    determinism.emplace_back(std::move(key), std::move(value));
  }
  /// Record a failed output check (counted as one failed operation).
  void check(bool ok, const std::string& what);

  /// Print every metric as "name = value unit", then the JSON line.
  void print(const Options& opts) const;
};

// --- statistics -------------------------------------------------------------

/// Nearest-rank quantile (q in [0, 1]) of an unsorted sample; 0 when empty.
double quantile(std::vector<double> v, double q);
double geomean(const std::vector<double>& v);
double seconds_since(std::uint64_t t0_ns);

/// Peak resident set of this process in MiB.
double peak_rss_mb();

// --- benchmark-side spans ---------------------------------------------------

/// One benchmark-side interval. Spans with async = true (svc requests and
/// their children) may overlap each other and are exported as async events
/// keyed by `id`; the others nest on the driving thread.
struct Span {
  const char* name = "";
  std::uint64_t t0 = 0;
  std::uint64_t t1 = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  bool async = false;
};

/// Spans of a traced pass, kept in memory and written at the end. Only the
/// first kMaxKept spans are kept for export; coverage accounting sees all.
class SpanLog {
 public:
  static constexpr std::size_t kMaxKept = 200'000;

  explicit SpanLog(bool on) : on_(on) {}
  [[nodiscard]] bool on() const noexcept { return on_; }

  /// Record a span; returns its id (0 when the log is off). Pass an id from
  /// new_id() to record a parent after its children.
  std::uint64_t add(const char* name, std::uint64_t t0, std::uint64_t t1,
                    std::uint64_t parent = 0, bool async = false, std::uint64_t id = 0);
  std::uint64_t new_id() noexcept { return on_ ? next_id_++ : 0; }

  /// Wall time covered by top-level synchronous spans (they never overlap).
  [[nodiscard]] double top_level_seconds() const noexcept { return top_ns_ * 1e-9; }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  bool on_;
  std::uint64_t next_id_ = 1;
  double top_ns_ = 0.0;
  std::vector<Span> spans_;
};

// --- obs attribution ----------------------------------------------------------

/// Self time of one traced snapshot, bucketed the way the per-layer metrics
/// name executor work.
struct Attribution {
  double leaf_s = 0.0;     ///< leaf codelet loops (fft/wht cols/rows, leaf_cols, stockham)
  double twiddle_s = 0.0;  ///< twiddle_rows, twiddle_cols
  double reorg_s = 0.0;    ///< reorg_gather, reorg_scatter, fused twiddle_scatter
  double perm_s = 0.0;     ///< stride_perm
  double stream_pack_s = 0.0, stream_fdl_s = 0.0, stream_ola_s = 0.0;
  double svc_staging_s = 0.0;  ///< svc_gather + svc_scatter
  std::uint64_t dropped = 0;   ///< ring overwrites (attribution incomplete)

  /// Self time in named work stages (everything but call envelopes).
  [[nodiscard]] double named_s() const noexcept {
    return leaf_s + twiddle_s + reorg_s + perm_s + stream_pack_s + stream_fdl_s + stream_ola_s +
           svc_staging_s;
  }
  void add(const Attribution& o);
};

/// Bucket a snapshot's per-stage self times.
Attribution attribute(const ddl::obs::Snapshot& snap);

/// Append a snapshot's events to `kept` for the chrome trace, keeping at
/// most the first 300k of a traced pass.
void keep_events(std::vector<ddl::obs::Event>& kept, const ddl::obs::Snapshot& snap);

/// Clear obs and start tracing with per-thread rings of `ring_events`,
/// allocating the calling thread's ring before it returns. Other threads
/// allocate theirs at their first event, so warm them up before timing.
void obs_start(std::size_t ring_events = std::size_t{1} << 18);
/// Write obs events and benchmark spans as one Chrome Trace Event file.
bool write_chrome_trace(const std::string& path, const std::vector<ddl::obs::Event>& events,
                        const SpanLog& spans);

// --- workloads ----------------------------------------------------------------

Report run_incache(const Options& opts);
Report run_outcache(const Options& opts);
Report run_stream_rt(const Options& opts);
Report run_svc_steady(const Options& opts);
/// Isolated codelet and layout replays (traced runs only).
Report run_layers(const Options& opts);

}  // namespace ddlbench
