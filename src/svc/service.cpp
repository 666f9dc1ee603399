#include "ddl/svc/service.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>  // ddl-lint: allow(raw-clock)
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "ddl/common/aligned.hpp"
#include "ddl/common/env.hpp"
#include "ddl/common/mathutil.hpp"
#include "ddl/fft/plan_cache.hpp"
#include "ddl/fft/planner.hpp"
#include "ddl/obs/obs.hpp"
#include "ddl/plan/grammar.hpp"
#include "ddl/verify/plan_verify.hpp"
#include "ddl/wht/planner.hpp"
#include "ddl/wht/wht.hpp"

namespace ddl::svc {

namespace {

constexpr std::uint64_t kNever = ~std::uint64_t{0};

/// Deficit-round-robin quantum unit: a weight-1 tenant earns this many
/// transform points of credit per rotation. Large enough that the rotation
/// count needed to afford the widest admissible dispatch
/// (max_points * max_batch) stays a small bounded integer, small enough
/// that weights express meaningful ratios at common sizes.
constexpr long long kQuantumPoints = 1 << 16;

/// Transform size of a request (length of the active payload span).
index_t points(const Request& req) {
  return req.kind == Kind::fft ? static_cast<index_t>(req.cdata.size())
                               : static_cast<index_t>(req.rdata.size());
}

}  // namespace

const char* status_name(Status s) noexcept {
  switch (s) {
    case Status::ok: return "ok";
    case Status::overloaded: return "overloaded";
    case Status::deadline_exceeded: return "deadline_exceeded";
    case Status::cancelled: return "cancelled";
    case Status::invalid: return "invalid";
    case Status::failed: return "failed";
  }
  return "unknown";
}

ServiceConfig ServiceConfig::from_env() {
  ServiceConfig cfg;
  cfg.queue_capacity = env::get_int_or("DDL_SVC_QUEUE_CAP", cfg.queue_capacity, 1,
                                       verify::kMaxServiceQueue);
  cfg.max_batch =
      env::get_int_or("DDL_SVC_MAX_BATCH", cfg.max_batch, 1, verify::kMaxServiceBatch);
  cfg.batch_delay_ns = 1000 * env::get_int_or("DDL_SVC_BATCH_DELAY_US",
                                              cfg.batch_delay_ns / 1000, 0,
                                              verify::kMaxServiceDelayNs / 1000);
  cfg.max_points = static_cast<index_t>(
      env::get_int_or("DDL_SVC_MAX_POINTS", cfg.max_points, 2, index_t{1} << 26));
  cfg.plan_queue_threshold = env::get_int_or("DDL_SVC_PLAN_THRESHOLD",
                                             cfg.plan_queue_threshold, 0,
                                             verify::kMaxServiceQueue);
  cfg.plan_dp = env::get_flag_or("DDL_SVC_PLAN", cfg.plan_dp);
  cfg.default_tenant_weight =
      env::get_int_or("DDL_SVC_TENANT_WEIGHT", cfg.default_tenant_weight, 1,
                      verify::kMaxTenantWeight);
  cfg.default_tenant_quota = env::get_int_or("DDL_SVC_TENANT_QUOTA",
                                             cfg.default_tenant_quota, 0,
                                             verify::kMaxServiceQueue);
  cfg.critical_reserve = env::get_int_or("DDL_SVC_CRITICAL_RESERVE",
                                         cfg.critical_reserve, 0,
                                         verify::kMaxServiceQueue);
  return cfg;
}

plan::TreePtr default_tree(Kind kind, index_t n) {
  // Near-balanced splits, reorganizing above the cache-escape threshold
  // (2^14 points = 256 KiB of cplx): the no-search tree shape the paper's
  // Sec. IV-B identifies as the robust default when a full DP plan is not
  // available.
  constexpr index_t kDdlAbove = index_t{1} << 14;
  return kind == Kind::fft ? fft::balanced_tree(n, 32, kDdlAbove)
                           : wht::balanced_wht_tree(n, 64, kDdlAbove);
}

struct TransformService::Impl {
  enum class State { running, draining, cancelling, stopped };

  /// Per-tenant admission/fairness state. Entries are created on a
  /// tenant's first submission and never erased, so Pending can hold a
  /// stable pointer across the queue -> held -> dispatch pipeline. The
  /// counters are relaxed atomics (read by stats() from any thread); the
  /// deficit is batcher-private.
  struct TenantState {
    std::uint32_t id = 0;
    long long weight = 1;  ///< DRR credit multiplier (immutable after creation)
    long long quota = 0;   ///< outstanding-request cap; 0 = queue capacity

    std::atomic<long long> outstanding{0};   ///< admitted, not yet terminal
    std::atomic<std::uint64_t> submitted{0};
    std::atomic<std::uint64_t> shed{0};
    std::atomic<std::uint64_t> expired{0};
    std::atomic<std::uint64_t> served{0};

    long long deficit = 0;  ///< DRR credit balance (batcher thread only)
  };

  struct Pending {
    Request req;
    std::promise<Result> promise;
    std::uint64_t submit_ns = 0;
    TenantState* ts = nullptr;  ///< set iff the request was admitted
  };

  /// Dispatch grouping: requests never share a coalesced dispatch across
  /// tenants (fair-share accounting would be meaningless otherwise), and
  /// the priority lane keeps its own buckets so a critical request is
  /// never held behind a normal sibling of the same shape.
  struct BucketKey {
    std::uint32_t tenant;
    bool critical;
    Kind kind;
    Direction dir;
    index_t n;
    bool operator<(const BucketKey& o) const noexcept {
      return std::tie(tenant, critical, kind, dir, n) <
             std::tie(o.tenant, o.critical, o.kind, o.dir, o.n);
    }
  };

  struct PlanInfo {
    std::string grammar;
    bool fallback = false;  ///< tier-3 default tree; upgraded when idle
  };

  explicit Impl(ServiceConfig config) : cfg(std::move(config)) {}

  ServiceConfig cfg;

  // --- control plane (shared with submitters) -----------------------------
  mutable std::mutex mutex;
  std::condition_variable cv;
  std::deque<Pending> queue;
  State state = State::running;

  // --- tenant registry (own lock: touched by submit and stats) ------------
  mutable std::mutex tenants_mutex;
  std::map<std::uint32_t, std::unique_ptr<TenantState>> tenant_map;

  // --- lifetime tallies (relaxed atomics: read by stats() anywhere) -------
  std::atomic<std::uint64_t> submitted{0};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> rejected{0};
  std::atomic<std::uint64_t> quota_rejected{0};
  std::atomic<std::uint64_t> expired{0};
  std::atomic<std::uint64_t> cancelled{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> batches{0};
  std::atomic<std::uint64_t> batched_requests{0};
  std::atomic<std::uint64_t> critical_batches{0};
  std::atomic<std::uint64_t> fallback_plans{0};
  std::atomic<std::uint64_t> model_fallbacks{0};
  std::atomic<std::uint64_t> queue_peak{0};
  std::atomic<std::uint64_t> held_count{0};  ///< requests parked in buckets
                                             ///< (maintained incrementally at
                                             ///< every ingest/cut/cancel site)

  // --- batcher-private state (only the batcher thread touches these) ------
  std::map<BucketKey, std::vector<Pending>> held;
  AlignedBuffer<cplx> staging;  ///< gather/scatter arena, grown monotonically
  std::map<std::string, std::unique_ptr<wht::WhtExecutor>> wht_execs;
  std::map<std::pair<int, index_t>, PlanInfo> plans;
  std::unique_ptr<fft::FftPlanner> fft_planner;
  std::unique_ptr<wht::WhtPlanner> wht_planner;
  std::uint64_t earliest_due = kNever;    ///< next bucket maturity instant
  std::deque<std::uint32_t> drr_ring;     ///< fair-rotation order of active tenants
  std::set<std::uint32_t> in_ring;        ///< drr_ring membership
  bool front_credited = false;            ///< ring front already got this visit's quantum

  std::mutex join_mutex;  ///< serializes drain()/shutdown_now() joins
  std::thread batcher;

  /// Resolve (or create) the state record for a tenant id, applying the
  /// configured policy (explicit TenantPolicy entry, else the defaults).
  TenantState* tenant_state(std::uint32_t id) {
    const std::lock_guard<std::mutex> lock(tenants_mutex);
    auto it = tenant_map.find(id);
    if (it != tenant_map.end()) return it->second.get();
    auto ts = std::make_unique<TenantState>();
    ts->id = id;
    ts->weight = cfg.default_tenant_weight;
    ts->quota = cfg.default_tenant_quota;
    for (const ServiceConfig::TenantPolicy& p : cfg.tenants) {
      if (p.id == id) {
        ts->weight = p.weight;
        ts->quota = p.max_queued;
        break;
      }
    }
    return tenant_map.emplace(id, std::move(ts)).first->second.get();
  }

  static void finish(Pending& p, Status status, std::uint64_t start_ns, int occupancy,
                     bool fallback, std::string error = {}) {
    if (p.ts != nullptr) {
      p.ts->outstanding.fetch_sub(1, std::memory_order_relaxed);
      if (status == Status::ok) {
        p.ts->served.fetch_add(1, std::memory_order_relaxed);
      } else if (status == Status::deadline_exceeded) {
        p.ts->expired.fetch_add(1, std::memory_order_relaxed);
      }
    }
    Result r;
    r.status = status;
    r.error = std::move(error);
    r.submit_ns = p.submit_ns;
    r.start_ns = start_ns;
    r.done_ns = obs::now_ns();
    r.batch_occupancy = occupancy;
    r.fallback_plan = fallback;
    r.tenant = p.req.tenant;
    p.promise.set_value(std::move(r));
  }

  /// Instant at which a partial bucket must dispatch: its oldest member's
  /// admission time plus the hold delay, capped by the earliest member
  /// deadline so an expiry resolves *at* the deadline rather than whenever
  /// the bucket would have matured. Priority-lane buckets never reach this
  /// function — they are due the moment they exist.
  ///
  /// The oldest admission stamp is the *minimum* submit_ns over the bucket,
  /// not the front member's: submit() captures submit_ns before taking the
  /// queue lock, so FIFO position is lock-acquisition order and the front
  /// member of a bucket can carry a younger stamp than a later one.
  /// Anchoring maturity to the front stamp let a bucket's hold window
  /// silently restart from the younger member, stretching the oldest
  /// request's wait past batch_delay_ns.
  [[nodiscard]] std::uint64_t bucket_due(const std::vector<Pending>& bucket) const {
    std::uint64_t oldest = bucket.front().submit_ns;
    std::uint64_t due = kNever;
    for (const auto& p : bucket) {
      oldest = std::min(oldest, p.submit_ns);
      if (p.req.deadline_ns != 0) due = std::min(due, p.req.deadline_ns);
    }
    return std::min(oldest + static_cast<std::uint64_t>(cfg.batch_delay_ns), due);
  }

  PlanInfo dp_plan(Kind kind, index_t n) {
    // ServiceConfig::cost_db and ::wisdom are borrowed pointers, so several
    // services in one process may share a CostDb/Wisdom pair, and those
    // stores are not thread-safe — so DP planning (the only store access on
    // a batcher thread) is serialized process-wide, not per instance.
    // Planning is rare (first-seen sizes, idle upgrades) and holds no
    // dispatch lock, so the serialization is invisible in steady state.
    static std::mutex store_mutex;
    const std::lock_guard<std::mutex> store_lock(store_mutex);
    PlanInfo info;
    if (kind == Kind::fft) {
      if (!fft_planner) {
        fft::PlannerOptions opts;
        opts.cost_db = cfg.cost_db;
        opts.wisdom = cfg.wisdom;
        // Cold-planning path: a first-seen size with no calibrated CostDb
        // entry must not fall back to wall-clock probing on the batcher
        // thread — the symbolic cache model (coefficients fit from whatever
        // the configured CostDb already holds) answers those lookups in
        // microseconds. Tallied into Stats::model_fallbacks below.
        opts.cache_model.cold_start_model = true;
        fft_planner = std::make_unique<fft::FftPlanner>(opts);
      }
      const std::uint64_t before = fft_planner->cost_stats().model_fallbacks;
      info.grammar = plan::to_string(*fft_planner->plan(n, fft::Strategy::ddl_dp));
      const std::uint64_t after = fft_planner->cost_stats().model_fallbacks;
      model_fallbacks.fetch_add(after - before, std::memory_order_relaxed);
    } else {
      if (!wht_planner) {
        wht::PlannerOptions opts;
        opts.cost_db = cfg.cost_db;
        opts.wisdom = cfg.wisdom;
        wht_planner = std::make_unique<wht::WhtPlanner>(opts);
      }
      info.grammar = plan::to_string(*wht_planner->plan(n, fft::Strategy::ddl_dp));
    }
    return info;
  }

  /// Tier 3: plan resolution on the batcher thread, **no lock held**. A
  /// first-seen size gets a DP search only while the backlog is at or
  /// below the threshold; under load it gets the memoized default tree
  /// immediately, and the memo is upgraded to the DP plan on the next
  /// dispatch of that size that finds the service idle again.
  const PlanInfo& resolve_plan(Kind kind, index_t n, std::size_t backlog) {
    const auto key = std::make_pair(static_cast<int>(kind), n);
    const bool idle =
        static_cast<long long>(backlog) <= cfg.plan_queue_threshold;
    if (auto it = plans.find(key); it != plans.end()) {
      if (it->second.fallback && cfg.plan_dp && idle) it->second = dp_plan(kind, n);
      return it->second;
    }
    PlanInfo info;
    if (cfg.plan_dp && idle) {
      info = dp_plan(kind, n);
    } else {
      info.grammar = plan::to_string(*default_tree(kind, n));
      // Only a *load-induced* default tree is a degradation event (and an
      // upgrade candidate); with planning disabled it is simply the
      // configured behaviour.
      info.fallback = cfg.plan_dp;
      if (info.fallback) {
        fallback_plans.fetch_add(1, std::memory_order_relaxed);
        obs::count(obs::Counter::svc_fallback_plans);
      }
    }
    return plans.emplace(key, std::move(info)).first->second;
  }

  /// Execute one FFT bucket through the process-wide PlanCache entry (one
  /// executor and twiddle set per tree shape, shared with every direct
  /// execute_tree() caller), holding its guard for the dispatch. A lone
  /// request runs in place; two or more stage through the arena and go
  /// through the batched entry point, which runs exactly the per-element
  /// operations of the direct call — results are bitwise identical.
  void run_fft_bucket(std::vector<Pending>& live, const std::string& grammar,
                      Direction dir) {
    const fft::PlanCache::Entry entry = fft::PlanCache::instance().get(grammar);
    const std::lock_guard<std::mutex> guard(*entry.guard);
    fft::FftExecutor& exec = *entry.exec;
    const index_t n = exec.size();
    if (live.size() == 1) {
      if (dir == Direction::forward) {
        exec.forward(live.front().req.cdata);
      } else {
        exec.inverse(live.front().req.cdata);
      }
      return;
    }
    const index_t count = static_cast<index_t>(live.size());
    if (staging.size() < count * n) staging = AlignedBuffer<cplx>(count * n);
    {
      const obs::ScopedStage gather(obs::Stage::svc_gather, n, count);
      for (index_t b = 0; b < count; ++b) {
        const std::span<const cplx> src = live[static_cast<std::size_t>(b)].req.cdata;
        std::copy(src.begin(), src.end(), staging.data() + b * n);
      }
    }
    if (dir == Direction::forward) {
      exec.forward_batch(staging.data(), count, n);
    } else {
      exec.inverse_batch(staging.data(), count, n);
    }
    {
      const obs::ScopedStage scatter(obs::Stage::svc_scatter, n, count);
      for (index_t b = 0; b < count; ++b) {
        const cplx* src = staging.data() + b * n;
        std::copy(src, src + n, live[static_cast<std::size_t>(b)].req.cdata.begin());
      }
    }
  }

  /// Execute one WHT bucket. The WHT has no batched entry point, so the
  /// bucket still amortizes one executor (tree + codelet dispatch) across
  /// its members while each transform fans internally across the pool.
  /// The inverse normalization is the exact pass of wht::Wht::inverse.
  void run_wht_bucket(std::vector<Pending>& live, const std::string& grammar,
                      Direction dir) {
    auto it = wht_execs.find(grammar);
    if (it == wht_execs.end()) {
      const plan::TreePtr tree = plan::parse_tree(grammar);
      it = wht_execs.emplace(grammar, std::make_unique<wht::WhtExecutor>(*tree)).first;
    }
    wht::WhtExecutor& exec = *it->second;
    const real_t scale = 1.0 / static_cast<real_t>(exec.size());
    for (auto& p : live) {
      exec.transform(p.req.rdata);
      if (dir == Direction::inverse) {
        for (auto& v : p.req.rdata) v *= scale;
      }
    }
  }

  /// One coalesced dispatch: expire dead members (tier 2), resolve the
  /// plan (tier 3), execute, complete every future. Any exception fails
  /// the whole bucket — members share one executor invocation.
  void dispatch(std::vector<Pending> batch, std::size_t depth_hint,
                const BucketKey& key) {
    const std::uint64_t start = obs::now_ns();
    std::vector<Pending> live;
    live.reserve(batch.size());
    for (auto& p : batch) {
      if (p.req.deadline_ns != 0 && p.req.deadline_ns <= start) {
        expired.fetch_add(1, std::memory_order_relaxed);
        obs::count(obs::Counter::svc_expired);
        finish(p, Status::deadline_exceeded, 0, 0, false);
      } else {
        live.push_back(std::move(p));
      }
    }
    if (live.empty()) return;

    batches.fetch_add(1, std::memory_order_relaxed);
    batched_requests.fetch_add(live.size(), std::memory_order_relaxed);
    obs::count(obs::Counter::svc_batches);
    obs::count(obs::Counter::svc_batched_requests, live.size());
    if (key.critical) {
      critical_batches.fetch_add(1, std::memory_order_relaxed);
      obs::count(obs::Counter::svc_critical_batches);
    }

    const Kind kind = live.front().req.kind;
    const Direction dir = live.front().req.dir;
    const index_t n = points(live.front().req);
    const int occupancy = static_cast<int>(live.size());

    const obs::ScopedStage stage(obs::Stage::svc_batch, occupancy,
                                 static_cast<std::int64_t>(depth_hint));
    const obs::ScopedStage tenant_stage(obs::Stage::svc_tenant_batch,
                                        static_cast<std::int64_t>(key.tenant),
                                        occupancy);
    const PlanInfo info = resolve_plan(kind, n, depth_hint);
    try {
      if (kind == Kind::fft) {
        run_fft_bucket(live, info.grammar, dir);
      } else {
        run_wht_bucket(live, info.grammar, dir);
      }
    } catch (const std::exception& e) {
      for (auto& p : live) {
        failed.fetch_add(1, std::memory_order_relaxed);
        finish(p, Status::failed, start, occupancy, info.fallback, e.what());
      }
      return;
    }
    for (auto& p : live) {
      completed.fetch_add(1, std::memory_order_relaxed);
      finish(p, Status::ok, start, occupancy, info.fallback);
    }
  }

  /// A bucket eligible for dispatch right now, with its DRR accounting.
  struct ReadyBucket {
    BucketKey key{};
    long long cost = 0;           ///< transform points the dispatch would burn
    std::uint64_t oldest_ns = 0;  ///< earliest member admission stamp
    TenantState* ts = nullptr;
  };

  /// Cut up to max_batch members off the front of `key`'s bucket and run
  /// them as one dispatch, maintaining held_count incrementally.
  void cut_and_dispatch(const BucketKey& key, std::size_t depth_hint) {
    const auto it = held.find(key);
    if (it == held.end()) return;
    std::vector<Pending>& bucket = it->second;
    const auto take = std::min(bucket.size(), static_cast<std::size_t>(cfg.max_batch));
    const auto cut = bucket.begin() + static_cast<std::ptrdiff_t>(take);
    std::vector<Pending> chunk(std::make_move_iterator(bucket.begin()),
                               std::make_move_iterator(cut));
    bucket.erase(bucket.begin(), cut);
    if (bucket.empty()) held.erase(it);
    held_count.fetch_sub(take, std::memory_order_relaxed);
    dispatch(std::move(chunk), depth_hint, key);
  }

  /// Scan the held buckets: collect everything dispatchable now (full,
  /// matured, priority-lane, or the service is stopping), split by lane,
  /// and refresh earliest_due for the batcher's timed wait.
  void scan_ready(std::uint64_t now, bool stopping,
                  std::vector<ReadyBucket>& critical_ready,
                  std::vector<ReadyBucket>& normal_ready) {
    earliest_due = kNever;
    for (auto& [key, bucket] : held) {
      const bool full = static_cast<long long>(bucket.size()) >= cfg.max_batch;
      if (!stopping && !full && !key.critical && cfg.batch_delay_ns != 0) {
        const std::uint64_t due = bucket_due(bucket);
        if (now < due) {
          earliest_due = std::min(earliest_due, due);
          continue;
        }
      }
      ReadyBucket rb;
      rb.key = key;
      const auto occupancy =
          std::min(bucket.size(), static_cast<std::size_t>(cfg.max_batch));
      rb.cost = static_cast<long long>(key.n) * static_cast<long long>(occupancy);
      rb.oldest_ns = bucket.front().submit_ns;
      for (const auto& p : bucket) rb.oldest_ns = std::min(rb.oldest_ns, p.submit_ns);
      rb.ts = bucket.front().ts;
      (key.critical ? critical_ready : normal_ready).push_back(std::move(rb));
    }
  }

  /// Pick the next normal-lane bucket by deficit round robin. The front
  /// tenant's "visit" spans batcher wakeups: it is credited
  /// weight * kQuantumPoints exactly once per visit (front_credited) and
  /// keeps dispatching from the front while its deficit covers its oldest
  /// ready bucket; when the deficit runs out the visit ends and the tenant
  /// rotates to the back, keeping the remainder. Crediting within the
  /// visit — not on rotation — means a newly-ready cheap stream dispatches
  /// the first time the ring reaches it, instead of watching an already-
  /// credited flood jump the turn it was just granted. A tenant visited
  /// with no ready bucket leaves the ring and forfeits its deficit
  /// (reset-on-empty: credit never accumulates across idle periods).
  /// Termination: every rotation either drops a tenant from the ring or
  /// ends a visit, and each tenant is visited at most once per call after
  /// its first rotation.
  const ReadyBucket* pick_fair(const std::vector<ReadyBucket>& normal_ready) {
    if (normal_ready.empty()) return nullptr;
    // Oldest ready bucket per tenant: FIFO within a tenant's own traffic.
    std::map<std::uint32_t, const ReadyBucket*> by_tenant;
    for (const ReadyBucket& rb : normal_ready) {
      auto [it, inserted] = by_tenant.emplace(rb.key.tenant, &rb);
      if (!inserted && rb.oldest_ns < it->second->oldest_ns) it->second = &rb;
    }
    for (const auto& [tid, rb] : by_tenant) {
      if (in_ring.insert(tid).second) drr_ring.push_back(tid);
    }
    while (!drr_ring.empty()) {
      const std::uint32_t tid = drr_ring.front();
      const auto it = by_tenant.find(tid);
      if (it == by_tenant.end()) {
        drr_ring.pop_front();
        in_ring.erase(tid);
        tenant_state(tid)->deficit = 0;
        front_credited = false;
        continue;
      }
      const ReadyBucket* rb = it->second;
      if (!front_credited) {
        rb->ts->deficit += rb->ts->weight * kQuantumPoints;
        front_credited = true;
      }
      if (rb->ts->deficit >= rb->cost) {
        rb->ts->deficit -= rb->cost;
        return rb;  // front stays: the visit continues next wakeup
      }
      drr_ring.pop_front();
      drr_ring.push_back(tid);
      front_credited = false;
    }
    return nullptr;  // unreachable: by_tenant was non-empty
  }

  void batcher_main() {
    bool more_ready = false;  ///< a ready bucket may remain: rescan, don't wait
    for (;;) {
      std::deque<Pending> incoming;
      State st;
      std::size_t depth_hint = 0;
      {
        std::unique_lock<std::mutex> lock(mutex);
        if (!more_ready && queue.empty() && state == State::running) {
          const auto woken = [&] { return !queue.empty() || state != State::running; };
          if (held_count.load(std::memory_order_relaxed) == 0 || earliest_due == kNever) {
            cv.wait(lock, woken);
          } else {
            const std::uint64_t now = obs::now_ns();
            if (earliest_due > now) {
              // Sleep until the oldest partial bucket matures (or work /
              // a state change arrives). The batcher is the only place in
              // the service that blocks on time.
              cv.wait_for(  // ddl-lint: allow(raw-clock)
                  lock, std::chrono::nanoseconds(earliest_due - now), woken);
            }
          }
        }
        incoming.swap(queue);
        st = state;
        depth_hint = incoming.size() + held_count.load(std::memory_order_relaxed);
      }

      held_count.fetch_add(incoming.size(), std::memory_order_relaxed);
      for (auto& p : incoming) {
        const BucketKey key{p.req.tenant, p.req.critical, p.req.kind, p.req.dir,
                            points(p.req)};
        held[key].push_back(std::move(p));
      }

      if (st == State::cancelling) {
        for (auto& [key, bucket] : held) {
          for (auto& p : bucket) {
            cancelled.fetch_add(1, std::memory_order_relaxed);
            finish(p, Status::cancelled, 0, 0, false);
          }
        }
        held.clear();
        held_count.store(0, std::memory_order_relaxed);
        break;
      }

      const bool stopping = st != State::running;
      const std::uint64_t now = obs::now_ns();
      std::vector<ReadyBucket> critical_ready;
      std::vector<ReadyBucket> normal_ready;
      scan_ready(now, stopping, critical_ready, normal_ready);

      // One dispatch per wakeup, then loop straight back to re-ingest the
      // request queue: this bounds any tenant's wait behind another
      // tenant's backlog to a single in-flight dispatch — the fairness
      // mechanism the DRR credits meter. Priority-lane buckets go first,
      // oldest admission winning inside the lane.
      const ReadyBucket* pick = nullptr;
      if (!critical_ready.empty()) {
        pick = &critical_ready.front();
        for (const ReadyBucket& rb : critical_ready) {
          if (rb.oldest_ns < pick->oldest_ns) pick = &rb;
        }
      } else {
        pick = pick_fair(normal_ready);
      }
      if (pick != nullptr) {
        cut_and_dispatch(pick->key, depth_hint);
        more_ready = true;  // remainder / siblings may still be dispatchable
      } else {
        more_ready = false;
      }

      if (stopping) {
        const std::lock_guard<std::mutex> lock(mutex);
        if (queue.empty() && held.empty()) break;
      }
    }
    const std::lock_guard<std::mutex> lock(mutex);
    state = State::stopped;
  }
};

TransformService::TransformService(ServiceConfig config) : cfg_(std::move(config)) {
  verify::ServiceLimits limits;
  limits.queue_capacity = cfg_.queue_capacity;
  limits.max_batch = cfg_.max_batch;
  limits.batch_delay_ns = cfg_.batch_delay_ns;
  limits.min_points = cfg_.min_points;
  limits.max_points = cfg_.max_points;
  limits.tenants.reserve(cfg_.tenants.size());
  for (const ServiceConfig::TenantPolicy& t : cfg_.tenants) {
    limits.tenants.push_back({static_cast<long long>(t.id), t.weight, t.max_queued});
  }
  limits.default_tenant_weight = cfg_.default_tenant_weight;
  limits.default_tenant_quota = cfg_.default_tenant_quota;
  limits.critical_reserve = cfg_.critical_reserve;
  const verify::Report report = verify::verify_service_config(limits);
  if (!report.ok()) {
    throw std::invalid_argument(
        "TransformService: config rejected by ddl::verify — " + report.to_string());
  }
  impl_ = std::make_unique<Impl>(cfg_);
  impl_->batcher = std::thread([impl = impl_.get()] { impl->batcher_main(); });
}

TransformService::~TransformService() { drain(); }

std::future<Result> TransformService::submit(Request req) {
  Impl::Pending p;
  p.req = req;
  p.submit_ns = obs::now_ns();
  std::future<Result> fut = p.promise.get_future();

  const index_t n = points(req);
  const bool span_ok = req.kind == Kind::fft ? !req.cdata.empty() : !req.rdata.empty();
  std::string bad;
  if (!span_ok) {
    bad = "payload span for the request kind is empty";
  } else if (n < cfg_.min_points || n > cfg_.max_points) {
    bad = "transform size outside the service's admissible window";
  } else if (req.kind == Kind::wht && !is_pow2(n)) {
    bad = "WHT size must be a power of two";
  }
  if (!bad.empty()) {
    Impl::finish(p, Status::invalid, 0, 0, false, std::move(bad));
    return fut;
  }
  Impl::TenantState* ts = impl_->tenant_state(req.tenant);
  if (req.deadline_ns != 0 && req.deadline_ns <= p.submit_ns) {
    impl_->expired.fetch_add(1, std::memory_order_relaxed);
    ts->expired.fetch_add(1, std::memory_order_relaxed);
    obs::count(obs::Counter::svc_expired);
    Impl::finish(p, Status::deadline_exceeded, 0, 0, false);
    return fut;
  }

  // Normal traffic is admitted only up to capacity - critical_reserve;
  // the reserved slots keep the priority lane usable through an overload.
  const long long cap = req.critical
                            ? cfg_.queue_capacity
                            : cfg_.queue_capacity - cfg_.critical_reserve;
  const long long quota = ts->quota > 0 ? ts->quota : cfg_.queue_capacity;

  const char* shed = nullptr;
  bool over_quota = false;
  {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    if (impl_->state != Impl::State::running) {
      shed = "service is shutting down";
    } else if (static_cast<long long>(impl_->queue.size()) >= cap) {
      shed = "request queue is full";
    } else if (ts->outstanding.load(std::memory_order_relaxed) >= quota) {
      shed = "tenant admission quota exhausted";
      over_quota = true;
    } else {
      p.ts = ts;
      ts->outstanding.fetch_add(1, std::memory_order_relaxed);
      ts->submitted.fetch_add(1, std::memory_order_relaxed);
      impl_->queue.push_back(std::move(p));
      const auto depth = static_cast<std::uint64_t>(impl_->queue.size());
      if (depth > impl_->queue_peak.load(std::memory_order_relaxed)) {
        impl_->queue_peak.store(depth, std::memory_order_relaxed);
      }
      impl_->submitted.fetch_add(1, std::memory_order_relaxed);
      obs::count(obs::Counter::svc_submitted);
      impl_->cv.notify_one();
    }
  }
  if (shed != nullptr) {
    impl_->rejected.fetch_add(1, std::memory_order_relaxed);
    ts->shed.fetch_add(1, std::memory_order_relaxed);
    obs::count(obs::Counter::svc_rejected);
    if (over_quota) {
      impl_->quota_rejected.fetch_add(1, std::memory_order_relaxed);
      obs::count(obs::Counter::svc_quota_rejected);
    }
    Impl::finish(p, Status::overloaded, 0, 0, false, shed);
  }
  return fut;
}

std::future<Result> TransformService::submit_fft(std::span<cplx> data, Direction dir,
                                                 std::uint64_t deadline_ns,
                                                 std::uint32_t tenant, bool critical) {
  Request req;
  req.kind = Kind::fft;
  req.dir = dir;
  req.cdata = data;
  req.deadline_ns = deadline_ns;
  req.tenant = tenant;
  req.critical = critical;
  return submit(req);
}

std::future<Result> TransformService::submit_wht(std::span<real_t> data, Direction dir,
                                                 std::uint64_t deadline_ns,
                                                 std::uint32_t tenant, bool critical) {
  Request req;
  req.kind = Kind::wht;
  req.dir = dir;
  req.rdata = data;
  req.deadline_ns = deadline_ns;
  req.tenant = tenant;
  req.critical = critical;
  return submit(req);
}

TransformService::Stats TransformService::stats() const {
  Stats s;
  s.submitted = impl_->submitted.load(std::memory_order_relaxed);
  s.completed = impl_->completed.load(std::memory_order_relaxed);
  s.rejected_full = impl_->rejected.load(std::memory_order_relaxed);
  s.quota_rejected = impl_->quota_rejected.load(std::memory_order_relaxed);
  s.deadline_expired = impl_->expired.load(std::memory_order_relaxed);
  s.cancelled = impl_->cancelled.load(std::memory_order_relaxed);
  s.failed = impl_->failed.load(std::memory_order_relaxed);
  s.batches = impl_->batches.load(std::memory_order_relaxed);
  s.batched_requests = impl_->batched_requests.load(std::memory_order_relaxed);
  s.critical_batches = impl_->critical_batches.load(std::memory_order_relaxed);
  s.fallback_plans = impl_->fallback_plans.load(std::memory_order_relaxed);
  s.model_fallbacks = impl_->model_fallbacks.load(std::memory_order_relaxed);
  s.queue_peak = impl_->queue_peak.load(std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lock(impl_->tenants_mutex);
    for (const auto& [id, ts] : impl_->tenant_map) {
      TenantStats t;
      t.submitted = ts->submitted.load(std::memory_order_relaxed);
      t.shed = ts->shed.load(std::memory_order_relaxed);
      t.expired = ts->expired.load(std::memory_order_relaxed);
      t.served = ts->served.load(std::memory_order_relaxed);
      s.tenants.emplace(id, t);
    }
  }
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  s.backlog = impl_->queue.size() + impl_->held_count.load(std::memory_order_relaxed);
  return s;
}

void TransformService::drain() {
  {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    if (impl_->state == Impl::State::running) impl_->state = Impl::State::draining;
  }
  impl_->cv.notify_all();
  const std::lock_guard<std::mutex> join_lock(impl_->join_mutex);
  if (impl_->batcher.joinable()) impl_->batcher.join();
}

void TransformService::shutdown_now() {
  {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    if (impl_->state == Impl::State::running || impl_->state == Impl::State::draining) {
      impl_->state = Impl::State::cancelling;
    }
  }
  impl_->cv.notify_all();
  const std::lock_guard<std::mutex> join_lock(impl_->join_mutex);
  if (impl_->batcher.joinable()) impl_->batcher.join();
}

}  // namespace ddl::svc
