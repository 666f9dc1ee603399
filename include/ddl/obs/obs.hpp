#pragma once
/// \file obs.hpp
/// \brief Runtime observability: per-stage scoped timers and counters on
///        lock-free per-thread ring buffers.
///
/// The paper's cost model (eq. 3) is built from *measured* per-stage costs
/// — codelet loops, twiddle passes, layout reorganizations — so the runtime
/// needs a way to see where a plan's time actually goes. ddl::obs provides
/// that with a deliberately small event model:
///
///  * A **stage** is one executor phase at one node: a reorganization pass,
///    a column/row sub-transform loop, a twiddle pass, a permutation, a
///    thread-pool chunk. Stages form a fixed enum — the hot path never
///    touches strings.
///  * A **ScopedStage** records one `[t0, t1)` interval (plus two integer
///    payload args, typically node sizes) into the calling thread's ring
///    buffer. Intervals on one thread are properly nested by construction,
///    so exporters can rebuild the stage tree without parent pointers.
///  * **Counters** are per-thread saturating tallies (chunks claimed,
///    plan-cache hits/misses/evictions, ...), merged on snapshot.
///
/// ## Hot-path contract
///
/// Tracing is compiled in but **disabled by default**. Disabled, every
/// instrumentation point is one relaxed atomic load and a predictable
/// branch — the overhead bound is asserted by tests/test_obs.cpp (< 2% of
/// a size-2^16 FFT). Enabled, events go to a thread-local ring buffer with
/// no locks and no allocation after a thread's first event; when a ring
/// fills, the oldest events are overwritten and a drop counter advances.
///
/// ## Control-plane contract
///
/// enable() / reset() / snapshot() are control-plane operations: call them
/// from one thread while no traced region is executing (the executors
/// join their pool fan-out before returning, so "after the transform call
/// returns" is always safe). `DDL_TRACE=1` in the environment enables
/// tracing at process start.
///
/// This header is intentionally self-contained (std only): ddl_obs sits
/// below ddl_common so the thread pool itself can be instrumented.
/// See docs/OBSERVABILITY.md for the exporter formats and a walkthrough.

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

namespace ddl::obs {

/// Executor / runtime phases. Keep in sync with stage_name().
enum class Stage : std::uint16_t {
  transform = 0,  ///< one whole forward()/inverse()/transform() call (root)
  batch,          ///< one whole forward_batch()/inverse_batch() call
  reorg_gather,   ///< DDL transpose-gather (a = n1, b = n2)
  reorg_scatter,  ///< DDL transpose-scatter (a = n1, b = n2)
  stride_perm,    ///< L^n_{n2} output permutation (a = n, b = n2)
  twiddle_rows,   ///< strided twiddle pass (a = n, b = n2)
  twiddle_cols,   ///< transposed-scratch twiddle pass (a = n, b = n2)
  leaf_cols,      ///< unit-stride column loop over a *leaf* child
                  ///< (a = leaf size, b = loop count; calibrates dft_leaf)
  fft_cols,       ///< FFT column sub-transform loop (a = child n, b = count)
  fft_rows,       ///< FFT row sub-transform loop (a = child n, b = count)
  wht_cols,       ///< WHT column sub-transform loop (a = child n, b = count)
  wht_rows,       ///< WHT row sub-transform loop (a = child n, b = count)
  par_dispatch,   ///< one thread-pool fork-join (a = chunks, b = lanes)
  par_chunk,      ///< one claimed chunk on a lane (a = chunk idx, b = slot)
  svc_batch,      ///< one coalesced service dispatch (a = occupancy,
                  ///< b = queue depth when the batch was cut)
  svc_gather,     ///< service staging gather before a batched dispatch
                  ///< (a = points per request, b = occupancy)
  svc_scatter,    ///< service staging scatter back to tenant buffers
                  ///< (a = points per request, b = occupancy)
  twiddle_scatter,  ///< fused twiddle+scatter pass of a ctddlf node
                    ///< (a = n1, b = n2; one sweep replacing twiddle_cols
                    ///< + reorg_scatter)
  stockham_leaf,  ///< one Stockham autosort-FFT leaf (a = n, b = stride)
  plan_build,     ///< PlanCache miss: executor construction (a = n).
                  ///< Appears inside a measured region only when a bench
                  ///< forgot to pre-warm the cache — benches assert zero.
  stream_block,   ///< one streaming process() call envelope
                  ///< (a = block/hop samples, b = fft size)
  stream_pack,    ///< real<->complex packing + (un)tangle of an rfft call
                  ///< (a = n, b = batch count)
  stream_fdl,     ///< frequency-domain delay-line MAC of the partitioned
                  ///< convolver (a = bins, b = partitions)
  stream_ola,     ///< time-domain slide/window/overlap-add passes of the
                  ///< streaming layer (a = fft size, b = hop)
  svc_tenant_batch, ///< one tenant's share of a coalesced dispatch
                    ///< (a = tenant id, b = requests it placed in the batch)
  count_          ///< sentinel (append stages above; numbering is
                  ///< trace-format-stable)
};

inline constexpr std::size_t kStageCount = static_cast<std::size_t>(Stage::count_);

/// Stable lower_snake name for exporters ("reorg_gather", ...).
const char* stage_name(Stage stage) noexcept;

/// Runtime tallies. Keep in sync with counter_name().
enum class Counter : std::uint16_t {
  par_dispatches = 0,    ///< thread-pool fork-joins issued
  par_chunks,            ///< chunks claimed (per-thread: lane imbalance)
  par_serial_regions,    ///< parallel_for calls that ran serially
  plan_cache_hits,
  plan_cache_misses,
  plan_cache_evictions,
  events_dropped,        ///< ring-buffer overwrites (trace incomplete)
  svc_submitted,         ///< service requests admitted to the queue
  svc_rejected,          ///< shed at submit: queue full (Status::overloaded)
  svc_expired,           ///< shed in queue: deadline passed before dispatch
  svc_batches,           ///< coalesced dispatches the batcher issued
  svc_batched_requests,  ///< requests those dispatches carried (occupancy =
                         ///< svc_batched_requests / svc_batches)
  svc_fallback_plans,    ///< sizes planned with the default tree under load
  calib_unmapped_events, ///< traced stage events ingest_stage_costs could
                         ///< not map to any CostKey (calibration gaps)
  svc_quota_rejected,    ///< shed at submit: tenant over its admission quota
  svc_critical_batches,  ///< priority-lane dispatches (deadline-critical
                         ///< buckets cut ahead of the fair rotation)
  count_                 ///< sentinel
};

inline constexpr std::size_t kCounterCount = static_cast<std::size_t>(Counter::count_);

const char* counter_name(Counter counter) noexcept;

/// ISA level of the kernel a leaf stage dispatched to. Values mirror
/// ddl::codelets::Isa (obs sits below codelets, so the numbering is
/// duplicated here and pinned by a static_assert in src/codelets/
/// dispatch.cpp): 0 = scalar, 1 = sse2, 2 = avx2, 3 = neon.
inline constexpr std::uint8_t kIsaScalar = 0;

/// Stable lower-case label for an Event::isa value ("scalar", "sse2",
/// "avx2", "neon"; unknown values map to "scalar").
const char* isa_label(std::uint8_t isa) noexcept;

/// One recorded interval. Times are steady-clock nanoseconds (now_ns()).
struct Event {
  std::uint64_t t0_ns = 0;
  std::uint64_t t1_ns = 0;
  std::int64_t a = 0;  ///< stage-specific payload (usually a node size)
  std::int64_t b = 0;  ///< stage-specific payload (usually a count/slot)
  Stage stage = Stage::transform;
  std::uint8_t isa = kIsaScalar;  ///< dispatched ISA (leaf stages; see isa_label)
  std::uint32_t tid = 0;  ///< dense per-thread id (registration order)
};

/// Merged view of every thread's ring buffer and counters.
struct Snapshot {
  std::vector<Event> events;  ///< sorted by (tid, t0_ns)
  std::array<std::uint64_t, kCounterCount> counters{};
  std::uint32_t threads = 0;  ///< thread logs merged

  [[nodiscard]] std::uint64_t counter(Counter c) const noexcept {
    return counters[static_cast<std::size_t>(c)];
  }
};

namespace detail {

/// Single process-wide switch; read on every instrumentation point.
extern std::atomic<bool> g_enabled;

/// Slow paths, out of line: thread-log lookup/creation and the append.
void record_event(Stage stage, std::uint64_t t0, std::uint64_t t1, std::int64_t a,
                  std::int64_t b, std::uint8_t isa = kIsaScalar) noexcept;
void add_count(Counter counter, std::uint64_t delta) noexcept;

}  // namespace detail

/// True when tracing is live. One relaxed load — the whole disabled-mode
/// cost of an instrumentation point.
inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Turn tracing on/off. Does not clear previously recorded data.
void enable(bool on) noexcept;

/// Honour DDL_TRACE ("1"/"true"/"on" enables). Called once automatically
/// before main() runs; exposed for tests.
void init_from_env() noexcept;

/// Drop all recorded events and zero all counters. Existing per-thread
/// rings are kept (warm) unless a set_ring_capacity() change is pending,
/// so a traced warmup run followed by reset() leaves every participating
/// thread ready to record at steady-state cost. Control-plane only.
void reset() noexcept;

/// Per-thread ring capacity in events for logs (re)built by the next
/// reset(); default 1 << 15. Control-plane only.
void set_ring_capacity(std::size_t events) noexcept;

/// Merge every thread's ring and counters. Control-plane only: the caller
/// must ensure no traced region is concurrently executing.
Snapshot snapshot();

/// Steady-clock nanoseconds (the event timebase).
std::uint64_t now_ns() noexcept;

/// Bump a counter on the calling thread's log. No-op while disabled.
inline void count(Counter counter, std::uint64_t delta = 1) noexcept {
  if (enabled()) detail::add_count(counter, delta);
}

/// RAII stage interval: captures t0 when tracing is enabled at entry and
/// records on destruction. Cheap to construct either way; never throws.
class ScopedStage {
 public:
  explicit ScopedStage(Stage stage, std::int64_t a = 0, std::int64_t b = 0,
                       std::uint8_t isa = kIsaScalar) noexcept
      : stage_(stage), a_(a), b_(b), isa_(isa) {
    if (enabled()) t0_ = now_ns();
  }

  ScopedStage(const ScopedStage&) = delete;
  ScopedStage& operator=(const ScopedStage&) = delete;

  ~ScopedStage() {
    if (t0_ != 0) detail::record_event(stage_, t0_, now_ns(), a_, b_, isa_);
  }

 private:
  std::uint64_t t0_ = 0;  ///< 0 = tracing was off at construction
  Stage stage_;
  std::int64_t a_;
  std::int64_t b_;
  std::uint8_t isa_;
};

}  // namespace ddl::obs
