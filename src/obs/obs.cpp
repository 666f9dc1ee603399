#include "ddl/obs/obs.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>

#include "ddl/common/env.hpp"

namespace ddl::obs {

namespace detail {

std::atomic<bool> g_enabled{false};

namespace {

/// One thread's event ring plus counters. Owned by the global registry so
/// a snapshot can outlive the thread; written only by the owning thread,
/// read by the control plane between traced regions.
struct ThreadLog {
  explicit ThreadLog(std::uint32_t id, std::size_t capacity)
      : tid(id), ring(capacity) {}

  std::uint32_t tid;
  std::vector<Event> ring;
  std::size_t next = 0;         ///< next write position (mod ring.size())
  std::uint64_t written = 0;    ///< lifetime events written
  std::array<std::uint64_t, kCounterCount> counters{};
};

struct Registry {
  std::mutex mutex;
  std::vector<std::unique_ptr<ThreadLog>> logs;
  std::size_t ring_capacity = std::size_t{1} << 15;
};

Registry& registry() {
  static Registry reg;
  return reg;
}

thread_local ThreadLog* t_log = nullptr;

/// Find-or-create the calling thread's log. The registry lock is taken
/// once per thread lifetime (plus once per reset, which invalidates the
/// cached pointers via a generation bump).
std::atomic<std::uint64_t> g_generation{0};
thread_local std::uint64_t t_generation = ~std::uint64_t{0};

ThreadLog& thread_log() {
  const std::uint64_t gen = g_generation.load(std::memory_order_acquire);
  if (t_log == nullptr || t_generation != gen) {
    Registry& reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    reg.logs.push_back(std::make_unique<ThreadLog>(
        static_cast<std::uint32_t>(reg.logs.size()), reg.ring_capacity));
    t_log = reg.logs.back().get();
    t_generation = gen;
  }
  return *t_log;
}

}  // namespace

void record_event(Stage stage, std::uint64_t t0, std::uint64_t t1, std::int64_t a,
                  std::int64_t b, std::uint8_t isa) noexcept {
  ThreadLog& log = thread_log();
  if (log.ring.empty()) return;
  if (log.written >= log.ring.size()) {
    ++log.counters[static_cast<std::size_t>(Counter::events_dropped)];
  }
  Event& e = log.ring[log.next];
  e.t0_ns = t0;
  e.t1_ns = t1;
  e.a = a;
  e.b = b;
  e.stage = stage;
  e.isa = isa;
  e.tid = log.tid;
  log.next = (log.next + 1) % log.ring.size();
  ++log.written;
}

void add_count(Counter counter, std::uint64_t delta) noexcept {
  ThreadLog& log = thread_log();
  log.counters[static_cast<std::size_t>(counter)] += delta;
}

}  // namespace detail

namespace {

using detail::g_enabled;

/// Runs before main(): applies DDL_TRACE so even un-instrumented drivers
/// (benches, examples) can be traced without code changes.
struct EnvInit {
  EnvInit() { init_from_env(); }
};
const EnvInit g_env_init;

}  // namespace

const char* stage_name(Stage stage) noexcept {
  switch (stage) {
    case Stage::transform: return "transform";
    case Stage::batch: return "batch";
    case Stage::reorg_gather: return "reorg_gather";
    case Stage::reorg_scatter: return "reorg_scatter";
    case Stage::stride_perm: return "stride_perm";
    case Stage::twiddle_rows: return "twiddle_rows";
    case Stage::twiddle_cols: return "twiddle_cols";
    case Stage::leaf_cols: return "leaf_cols";
    case Stage::fft_cols: return "fft_cols";
    case Stage::fft_rows: return "fft_rows";
    case Stage::wht_cols: return "wht_cols";
    case Stage::wht_rows: return "wht_rows";
    case Stage::par_dispatch: return "par_dispatch";
    case Stage::par_chunk: return "par_chunk";
    case Stage::svc_batch: return "svc_batch";
    case Stage::svc_gather: return "svc_gather";
    case Stage::svc_scatter: return "svc_scatter";
    case Stage::twiddle_scatter: return "twiddle_scatter";
    case Stage::stockham_leaf: return "stockham_leaf";
    case Stage::plan_build: return "plan_build";
    case Stage::stream_block: return "stream_block";
    case Stage::stream_pack: return "stream_pack";
    case Stage::stream_fdl: return "stream_fdl";
    case Stage::stream_ola: return "stream_ola";
    case Stage::svc_tenant_batch: return "svc_tenant_batch";
    case Stage::count_: break;
  }
  return "unknown";
}

const char* isa_label(std::uint8_t isa) noexcept {
  // Mirrors ddl::codelets::Isa; the numbering is pinned by a static_assert
  // in src/codelets/dispatch.cpp.
  switch (isa) {
    case 1: return "sse2";
    case 2: return "avx2";
    case 3: return "neon";
    default: return "scalar";
  }
}

const char* counter_name(Counter counter) noexcept {
  switch (counter) {
    case Counter::par_dispatches: return "par_dispatches";
    case Counter::par_chunks: return "par_chunks";
    case Counter::par_serial_regions: return "par_serial_regions";
    case Counter::plan_cache_hits: return "plan_cache_hits";
    case Counter::plan_cache_misses: return "plan_cache_misses";
    case Counter::plan_cache_evictions: return "plan_cache_evictions";
    case Counter::events_dropped: return "events_dropped";
    case Counter::svc_submitted: return "svc_submitted";
    case Counter::svc_rejected: return "svc_rejected";
    case Counter::svc_expired: return "svc_expired";
    case Counter::svc_batches: return "svc_batches";
    case Counter::svc_batched_requests: return "svc_batched_requests";
    case Counter::svc_fallback_plans: return "svc_fallback_plans";
    case Counter::calib_unmapped_events: return "calib_unmapped_events";
    case Counter::svc_quota_rejected: return "svc_quota_rejected";
    case Counter::svc_critical_batches: return "svc_critical_batches";
    case Counter::count_: break;
  }
  return "unknown";
}

void enable(bool on) noexcept { g_enabled.store(on, std::memory_order_relaxed); }

void init_from_env() noexcept {
  // env.hpp is header-only, so using it here adds no link dependency and
  // keeps ddl_obs below ddl_common (see the note in that header).
  if (env::get("DDL_TRACE") == nullptr) return;
  enable(env::get_flag("DDL_TRACE"));
}

void reset() noexcept {
  auto& reg = detail::registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  // Clear in place when the rings already match the requested capacity:
  // keeping the (page-touched) allocations means a thread's first event
  // after reset costs the same as any other, instead of a multi-hundred-µs
  // allocation spike inside the traced region. Only a capacity change
  // drops the logs — cached thread-local pointers are then invalidated
  // through the generation counter and threads re-register.
  const bool rebuild = std::any_of(
      reg.logs.begin(), reg.logs.end(),
      [&](const auto& log) { return log->ring.size() != reg.ring_capacity; });
  if (rebuild) {
    reg.logs.clear();
    detail::g_generation.fetch_add(1, std::memory_order_acq_rel);
    return;
  }
  for (auto& log : reg.logs) {
    log->next = 0;
    log->written = 0;
    log->counters.fill(0);
  }
}

void set_ring_capacity(std::size_t events) noexcept {
  auto& reg = detail::registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  reg.ring_capacity = events;
}

Snapshot snapshot() {
  Snapshot snap;
  auto& reg = detail::registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  snap.threads = static_cast<std::uint32_t>(reg.logs.size());
  for (const auto& log : reg.logs) {
    for (std::size_t i = 0; i < kCounterCount; ++i) snap.counters[i] += log->counters[i];
    const std::size_t n = std::min<std::uint64_t>(log->written, log->ring.size());
    // Unwrap the ring oldest-first so per-thread order stays chronological.
    const std::size_t start = log->written > log->ring.size() ? log->next : 0;
    for (std::size_t k = 0; k < n; ++k) {
      snap.events.push_back(log->ring[(start + k) % log->ring.size()]);
    }
  }
  std::stable_sort(snap.events.begin(), snap.events.end(),
                   [](const Event& x, const Event& y) {
                     if (x.tid != y.tid) return x.tid < y.tid;
                     if (x.t0_ns != y.t0_ns) return x.t0_ns < y.t0_ns;
                     return x.t1_ns > y.t1_ns;  // outer interval first
                   });
  return snap;
}

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace ddl::obs
