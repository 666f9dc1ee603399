// ddl::svc tests: batching correctness (service results bitwise identical
// to direct executor calls at every thread count), the three degradation
// tiers (queue-full rejection, in-queue deadline expiry, fallback
// planning), drain/shutdown semantics, config admission, and an
// 8-producer stress run. Registered under the ctest labels `svc` and
// `concurrency`, so the ThreadSanitizer preset races the whole submit /
// batch / resolve path.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ddl/common/aligned.hpp"
#include "ddl/common/parallel.hpp"
#include "ddl/common/rng.hpp"
#include "ddl/fft/executor.hpp"
#include "ddl/fft/plan_cache.hpp"
#include "ddl/obs/obs.hpp"
#include "ddl/plan/costdb.hpp"
#include "ddl/plan/grammar.hpp"
#include "ddl/plan/wisdom.hpp"
#include "ddl/svc/service.hpp"
#include "ddl/verify/plan_verify.hpp"
#include "ddl/wht/wht_api.hpp"

namespace ddl {
namespace {

/// Every test leaves the pool back at one thread so test order can't leak
/// parallelism into suites that assume the serial default.
class ThreadGuard {
 public:
  explicit ThreadGuard(int n) { parallel::set_threads(n); }
  ~ThreadGuard() { parallel::set_threads(1); }
};

/// Deterministic test config: DP planning off (every size runs the
/// default_tree), instant bucket cut unless a test overrides the delay.
svc::ServiceConfig test_config() {
  svc::ServiceConfig cfg;
  cfg.plan_dp = false;
  cfg.batch_delay_ns = 0;
  return cfg;
}

std::vector<cplx> random_signal(index_t n, std::uint64_t seed) {
  AlignedBuffer<cplx> buf(n);
  fill_random(buf.span(), seed);
  return {buf.begin(), buf.end()};
}

TEST(Svc, SingleRequestMatchesDirectExecutor) {
  const index_t n = 256;
  std::vector<cplx> data = random_signal(n, 11);
  std::vector<cplx> expect = data;
  fft::FftExecutor exec(*svc::default_tree(svc::Kind::fft, n));
  exec.forward(expect);

  svc::TransformService service(test_config());
  svc::Result r = service.submit_fft(data).get();
  ASSERT_EQ(r.status, svc::Status::ok);
  EXPECT_EQ(r.batch_occupancy, 1);
  for (index_t i = 0; i < n; ++i) {
    EXPECT_EQ(data[i].real(), expect[i].real()) << i;
    EXPECT_EQ(data[i].imag(), expect[i].imag()) << i;
  }
}

// The acceptance property: a coalesced dispatch runs exactly the
// per-element operations of a direct forward() call, so batched service
// results are bitwise identical to unbatched execution — at one thread
// and at many.
TEST(Svc, BatchedResultsBitwiseEqualDirectAcrossThreadCounts) {
  const index_t n = 512;
  const int kRequests = 12;
  std::vector<std::vector<cplx>> expect(kRequests);
  fft::FftExecutor exec(*svc::default_tree(svc::Kind::fft, n));
  for (int i = 0; i < kRequests; ++i) {
    expect[i] = random_signal(n, 100 + static_cast<std::uint64_t>(i));
    exec.forward(expect[i]);
  }

  for (const int threads : {1, 4}) {
    const ThreadGuard guard(threads);
    svc::ServiceConfig cfg = test_config();
    cfg.batch_delay_ns = 50'000'000;  // hold buckets so requests coalesce
    cfg.max_batch = kRequests;
    svc::TransformService service(cfg);

    std::vector<std::vector<cplx>> data(kRequests);
    std::vector<std::future<svc::Result>> futures;
    for (int i = 0; i < kRequests; ++i) {
      data[i] = random_signal(n, 100 + static_cast<std::uint64_t>(i));
      futures.push_back(service.submit_fft(data[i]));
    }
    bool coalesced = false;
    for (int i = 0; i < kRequests; ++i) {
      const svc::Result r = futures[i].get();
      ASSERT_EQ(r.status, svc::Status::ok) << "threads=" << threads;
      coalesced = coalesced || r.batch_occupancy > 1;
      for (index_t k = 0; k < n; ++k) {
        ASSERT_EQ(data[i][k].real(), expect[i][k].real())
            << "threads=" << threads << " req=" << i << " k=" << k;
        ASSERT_EQ(data[i][k].imag(), expect[i][k].imag())
            << "threads=" << threads << " req=" << i << " k=" << k;
      }
    }
    // With a full-width bucket and a generous hold delay, at least some
    // requests must actually have shared a dispatch.
    EXPECT_TRUE(coalesced) << "threads=" << threads;
    EXPECT_GE(service.stats().batched_requests, static_cast<std::uint64_t>(kRequests));
  }
}

TEST(Svc, InverseRoundTripsThroughService) {
  const index_t n = 128;
  std::vector<cplx> data = random_signal(n, 7);
  const std::vector<cplx> original = data;

  svc::TransformService service(test_config());
  ASSERT_EQ(service.submit_fft(data, svc::Direction::forward).get().status,
            svc::Status::ok);
  ASSERT_EQ(service.submit_fft(data, svc::Direction::inverse).get().status,
            svc::Status::ok);
  for (index_t i = 0; i < n; ++i) {
    EXPECT_NEAR(data[i].real(), original[i].real(), 1e-9);
    EXPECT_NEAR(data[i].imag(), original[i].imag(), 1e-9);
  }
}

TEST(Svc, WhtForwardAndInverseMatchDirectApi) {
  const index_t n = 1024;
  AlignedBuffer<real_t> buf(n);
  fill_random(buf.span(), 21);
  std::vector<real_t> data(buf.begin(), buf.end());
  std::vector<real_t> expect = data;

  wht::Wht direct = wht::Wht::from_tree(*svc::default_tree(svc::Kind::wht, n));
  direct.transform(expect);

  svc::TransformService service(test_config());
  ASSERT_EQ(service.submit_wht(data).get().status, svc::Status::ok);
  for (index_t i = 0; i < n; ++i) EXPECT_EQ(data[i], expect[i]) << i;

  direct.inverse(expect);
  ASSERT_EQ(service.submit_wht(data, svc::Direction::inverse).get().status,
            svc::Status::ok);
  for (index_t i = 0; i < n; ++i) EXPECT_EQ(data[i], expect[i]) << i;
}

TEST(Svc, RejectsInvalidRequests) {
  svc::TransformService service(test_config());

  // Wrong payload span for the kind.
  svc::Request req;
  req.kind = svc::Kind::fft;
  EXPECT_EQ(service.submit(req).get().status, svc::Status::invalid);

  // Non-power-of-two WHT.
  std::vector<real_t> odd(48, 1.0);
  EXPECT_EQ(service.submit_wht(odd).get().status, svc::Status::invalid);

  // Size above the admissible window.
  svc::ServiceConfig small = test_config();
  small.max_points = 64;
  svc::TransformService tight(small);
  std::vector<cplx> over(128, cplx{1.0, 0.0});
  EXPECT_EQ(tight.submit_fft(over).get().status, svc::Status::invalid);
}

// Tier 1: reject at the door. The batcher is deterministically wedged by
// holding the PlanCache entry guard its first dispatch needs, so the
// bounded queue fills and the (capacity + 2)-th submit must shed.
TEST(Svc, QueueFullRejectsWithOverloaded) {
  const index_t n = 64;
  const std::string grammar = plan::to_string(*svc::default_tree(svc::Kind::fft, n));
  const fft::PlanCache::Entry entry = fft::PlanCache::instance().get(grammar);

  svc::ServiceConfig cfg = test_config();
  cfg.queue_capacity = 4;
  cfg.max_batch = 1;  // every request dispatches alone, straight into the guard
  svc::TransformService service(cfg);

  std::vector<std::vector<cplx>> data;
  std::vector<std::future<svc::Result>> futures;
  {
    const std::lock_guard<std::mutex> wedge(*entry.guard);
    // The batcher's first (and only) queue swap can capture at most
    // queue_capacity requests before its dispatch blocks on the wedged
    // guard; after that the queue itself holds at most queue_capacity
    // more. 2 * capacity + 3 submits therefore guarantee a shed. A valid,
    // deadline-free submit resolves immediately only on the shed path.
    bool saw_overloaded = false;
    for (int i = 0; i < 11 && !saw_overloaded; ++i) {
      data.emplace_back(static_cast<std::size_t>(n), cplx{1.0, 0.0});
      std::future<svc::Result> f = service.submit_fft(data.back());
      if (f.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
        EXPECT_EQ(f.get().status, svc::Status::overloaded);
        saw_overloaded = true;
      } else {
        futures.push_back(std::move(f));
      }
    }
    EXPECT_TRUE(saw_overloaded);
    EXPECT_GE(service.stats().rejected_full, 1u);
  }
  // Guard released: everything admitted completes.
  for (auto& f : futures) EXPECT_EQ(f.get().status, svc::Status::ok);
}

// shutdown_now() completes admitted-but-unexecuted work with
// Status::cancelled instead of running it.
TEST(Svc, ShutdownNowCancelsParkedWork) {
  svc::ServiceConfig cfg = test_config();
  cfg.batch_delay_ns = verify::kMaxServiceDelayNs;  // buckets never mature
  cfg.max_batch = 64;                               // and never fill
  svc::TransformService service(cfg);

  const int kRequests = 8;
  std::vector<std::vector<cplx>> data(kRequests);
  std::vector<std::future<svc::Result>> futures;
  for (int i = 0; i < kRequests; ++i) {
    data[i] = std::vector<cplx>(64, cplx{1.0, 0.0});
    futures.push_back(service.submit_fft(data[i]));
  }
  service.shutdown_now();
  for (auto& f : futures) {
    const svc::Result r = f.get();
    EXPECT_EQ(r.status, svc::Status::cancelled);
    EXPECT_EQ(r.start_ns, 0u);  // never dispatched
  }
  const svc::TransformService::Stats stats = service.stats();
  EXPECT_EQ(stats.cancelled, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_EQ(stats.backlog, 0u);
  // Cancelled requests' data is untouched.
  EXPECT_EQ(data[0][0].real(), 1.0);

  // A stopped service sheds new submits immediately.
  std::vector<cplx> late(64, cplx{1.0, 0.0});
  EXPECT_EQ(service.submit_fft(late).get().status, svc::Status::overloaded);
}

TEST(Svc, DeadlinesExpireInQueue) {
  svc::ServiceConfig cfg = test_config();
  cfg.batch_delay_ns = verify::kMaxServiceDelayNs;  // bucket would never cut
  cfg.max_batch = 64;
  svc::TransformService service(cfg);

  // Already-past deadline: shed at submit, data untouched.
  std::vector<cplx> a(64, cplx{2.0, 0.0});
  const svc::Result past =
      service.submit_fft(a, svc::Direction::forward, obs::now_ns() - 1).get();
  EXPECT_EQ(past.status, svc::Status::deadline_exceeded);
  EXPECT_EQ(a.front().real(), 2.0);

  // Deadline shorter than the bucket hold: the batcher must resolve the
  // expiry at the deadline instead of holding the future for the full
  // (10 s) bucket delay.
  std::vector<cplx> b(64, cplx{3.0, 0.0});
  const std::uint64_t t0 = obs::now_ns();
  const svc::Result r =
      service.submit_fft(b, svc::Direction::forward, t0 + 20'000'000).get();
  const std::uint64_t waited = obs::now_ns() - t0;
  EXPECT_EQ(r.status, svc::Status::deadline_exceeded);
  EXPECT_LT(waited, 5'000'000'000u);  // resolved near the deadline, not the hold
  EXPECT_EQ(b.front().real(), 3.0);   // data untouched
  EXPECT_GE(service.stats().deadline_expired, 2u);
}

// Regression for the bucket wake-up arithmetic: the batcher's due time must
// be the min over *all* bucket members' deadlines and submit times, not the
// front member's (submit_ns is captured before the queue lock, so the front
// is not necessarily the oldest, and a deadline-free front must not hide a
// later member's sooner deadline behind the full bucket hold).
TEST(Svc, BucketDueTracksNonFrontDeadline) {
  svc::ServiceConfig cfg = test_config();
  cfg.batch_delay_ns = verify::kMaxServiceDelayNs;  // hold would be 10 s
  cfg.max_batch = 64;
  svc::TransformService service(cfg);

  const index_t n = 64;
  // Front of the bucket: no deadline — on its own it would sit for the
  // full hold.
  std::vector<cplx> a = random_signal(n, 700);
  std::future<svc::Result> fa = service.submit_fft(a);
  // Second member, same size bucket, with a deadline far sooner than the
  // hold. Pre-expired relative to the hold, live relative to now.
  std::vector<cplx> b = random_signal(n, 701);
  const std::uint64_t t0 = obs::now_ns();
  std::future<svc::Result> fb =
      service.submit_fft(b, svc::Direction::forward, t0 + 50'000'000);  // 50 ms

  // The deadline must cut the bucket: both futures resolve near the 50 ms
  // mark, not the 10 s hold. The deadline-free request executes; whether
  // the deadlined one made the cut or expired depends on scheduling, but
  // it must not be left pending.
  const svc::Result ra = fa.get();
  const svc::Result rb = fb.get();
  const std::uint64_t waited = obs::now_ns() - t0;
  EXPECT_LT(waited, 5'000'000'000u) << "bucket held past a member deadline";
  EXPECT_EQ(ra.status, svc::Status::ok);
  EXPECT_TRUE(rb.status == svc::Status::ok || rb.status == svc::Status::deadline_exceeded);
}

// A pre-expired (nonzero, in-the-past) deadline must resolve immediately at
// submit — and in particular must never wrap around the unsigned deadline
// arithmetic into a multi-second wait.
TEST(Svc, PreExpiredDeadlineResolvesImmediately) {
  svc::ServiceConfig cfg = test_config();
  cfg.batch_delay_ns = verify::kMaxServiceDelayNs;
  svc::TransformService service(cfg);

  std::vector<cplx> data = random_signal(64, 702);
  const std::uint64_t t0 = obs::now_ns();
  const svc::Result r =
      service.submit_fft(data, svc::Direction::forward, t0 - 1'000'000).get();
  const std::uint64_t waited = obs::now_ns() - t0;
  EXPECT_EQ(r.status, svc::Status::deadline_exceeded);
  EXPECT_LT(waited, 1'000'000'000u) << "pre-expired deadline wedged the submit path";
  EXPECT_GE(service.stats().deadline_expired, 1u);
}

TEST(Svc, DrainExecutesEverythingAdmitted) {
  svc::ServiceConfig cfg = test_config();
  cfg.batch_delay_ns = verify::kMaxServiceDelayNs;  // only drain can flush
  cfg.max_batch = 32;
  cfg.queue_capacity = 64;
  svc::TransformService service(cfg);

  const index_t n = 128;
  const int kRequests = 24;
  std::vector<std::vector<cplx>> data(kRequests);
  std::vector<std::future<svc::Result>> futures;
  for (int i = 0; i < kRequests; ++i) {
    data[i] = random_signal(n, 500 + static_cast<std::uint64_t>(i));
    futures.push_back(service.submit_fft(data[i]));
  }
  service.drain();
  for (auto& f : futures) EXPECT_EQ(f.get().status, svc::Status::ok);
  const svc::TransformService::Stats stats = service.stats();
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(stats.backlog, 0u);
  // Drain is idempotent, and the destructor's drain is then a no-op.
  service.drain();
}

TEST(Svc, ConfigAdmissionGate) {
  svc::ServiceConfig bad = test_config();
  bad.queue_capacity = 0;
  EXPECT_THROW(svc::TransformService{bad}, std::invalid_argument);

  bad = test_config();
  bad.max_batch = bad.queue_capacity + 1;  // batch wider than the queue
  EXPECT_THROW(svc::TransformService{bad}, std::invalid_argument);

  bad = test_config();
  bad.max_points = 1;  // empty size window
  EXPECT_THROW(svc::TransformService{bad}, std::invalid_argument);

  verify::ServiceLimits broken;
  broken.queue_capacity = 0;
  broken.max_batch = 1 << 13;
  broken.batch_delay_ns = -1;
  broken.min_points = 1;
  broken.max_points = 0;
  const verify::Report report = verify::verify_service_config(broken);
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.diagnostics.size(), 4u);
}

// Eight producers hammer one service with mixed kinds, directions, sizes,
// and deadlines while the pool runs multi-threaded. Run under TSan by the
// `tsan` preset (label: concurrency). Every future must resolve with a
// terminal status and every ok-result must be bitwise correct.
TEST(Svc, EightProducerStressResolvesEveryFuture) {
  const ThreadGuard guard(4);
  svc::ServiceConfig cfg = test_config();
  cfg.queue_capacity = 128;
  cfg.max_batch = 8;
  cfg.batch_delay_ns = 100'000;
  svc::TransformService service(cfg);

  constexpr int kProducers = 8;
  constexpr int kPerProducer = 40;
  const std::array<index_t, 3> sizes{64, 256, 1024};

  // Expected spectra per (producer, request) computed up front with direct
  // executors so the worker threads only compare — the direct executors'
  // scratch arenas are not shareable across threads.
  std::array<fft::FftExecutor, 3> execs{
      fft::FftExecutor(*svc::default_tree(svc::Kind::fft, sizes[0])),
      fft::FftExecutor(*svc::default_tree(svc::Kind::fft, sizes[1])),
      fft::FftExecutor(*svc::default_tree(svc::Kind::fft, sizes[2]))};
  std::vector<std::vector<cplx>> expected(
      static_cast<std::size_t>(kProducers * kPerProducer));
  for (int t = 0; t < kProducers; ++t) {
    for (int i = 0; i < kPerProducer; ++i) {
      const int which = (t + i) % 3;
      const index_t n = sizes[static_cast<std::size_t>(which)];
      std::vector<cplx> spectrum =
          random_signal(n, static_cast<std::uint64_t>(t * 1000 + i));
      execs[static_cast<std::size_t>(which)].forward(spectrum);
      expected[static_cast<std::size_t>(t * kPerProducer + i)] =
          std::move(spectrum);
    }
  }

  std::atomic<int> ok{0};
  std::atomic<int> shed{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      for (int i = 0; i < kPerProducer; ++i) {
        const int which = (t + i) % 3;
        const index_t n = sizes[static_cast<std::size_t>(which)];
        const auto seed = static_cast<std::uint64_t>(t * 1000 + i);
        std::vector<cplx> data = random_signal(n, seed);
        // Every 5th request carries a tight deadline so expiry races the
        // batcher; the rest must complete.
        const std::uint64_t deadline =
            i % 5 == 4 ? obs::now_ns() + 50'000 : 0;
        const svc::Result r = service.submit_fft(data, svc::Direction::forward,
                                                 deadline).get();
        if (r.status == svc::Status::ok) {
          const std::vector<cplx>& expect =
              expected[static_cast<std::size_t>(t * kPerProducer + i)];
          for (index_t k = 0; k < n; ++k) {
            if (data[static_cast<std::size_t>(k)] != expect[static_cast<std::size_t>(k)]) {
              mismatches.fetch_add(1);
              break;
            }
          }
          ok.fetch_add(1);
        } else {
          shed.fetch_add(1);
        }
      }
    });
  }
  for (auto& p : producers) p.join();
  service.drain();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(ok.load() + shed.load(), kProducers * kPerProducer);
  EXPECT_GE(ok.load(), 1);
  const svc::TransformService::Stats stats = service.stats();
  EXPECT_EQ(stats.backlog, 0u);
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(ok.load()));
}

// ---------------------------------------------------------------------------
// Multi-tenant fairness, quotas, and the priority lane
// ---------------------------------------------------------------------------

/// Spin until the batcher has swallowed everything visible in the backlog
/// gauge (queued + held) — with a wedge held, that means it is blocked
/// inside its current dispatch.
void wait_for_empty_backlog(const svc::TransformService& service) {
  while (service.stats().backlog != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// Starvation regression: a tenant flooding wide transforms must not delay
// another tenant's small stream by more than ~one quantum of its own
// work. The batcher is wedged on the flood's first dispatch; the heavy
// backlog and the light stream are admitted behind it; on release, the
// deficit-round-robin rotation must interleave the light bucket ahead of
// most of the heavy backlog instead of draining the flood first.
TEST(Svc, TwoTenantFairnessLightStreamNotStarved) {
  const index_t heavy_n = 16384;
  const index_t light_n = 256;
  const int kHeavy = 16;
  const int kLight = 4;
  const std::string grammar =
      plan::to_string(*svc::default_tree(svc::Kind::fft, heavy_n));
  const fft::PlanCache::Entry entry = fft::PlanCache::instance().get(grammar);

  svc::ServiceConfig cfg = test_config();
  cfg.queue_capacity = 64;
  cfg.max_batch = 4;
  svc::TransformService service(cfg);

  std::vector<std::vector<cplx>> heavy(kHeavy);
  std::vector<std::vector<cplx>> light(kLight);
  std::vector<std::future<svc::Result>> heavy_futs;
  std::vector<std::future<svc::Result>> light_futs;
  {
    const std::lock_guard<std::mutex> wedge(*entry.guard);
    heavy[0] = random_signal(heavy_n, 900);
    heavy_futs.push_back(
        service.submit_fft(heavy[0], svc::Direction::forward, 0, /*tenant=*/1));
    wait_for_empty_backlog(service);  // batcher is now blocked on the wedge
    for (int i = 1; i < kHeavy; ++i) {
      heavy[static_cast<std::size_t>(i)] =
          random_signal(heavy_n, 900 + static_cast<std::uint64_t>(i));
      heavy_futs.push_back(service.submit_fft(heavy[static_cast<std::size_t>(i)],
                                              svc::Direction::forward, 0, 1));
    }
    for (int i = 0; i < kLight; ++i) {
      light[static_cast<std::size_t>(i)] =
          random_signal(light_n, 1900 + static_cast<std::uint64_t>(i));
      light_futs.push_back(service.submit_fft(light[static_cast<std::size_t>(i)],
                                              svc::Direction::forward, 0, 2));
    }
  }

  std::uint64_t light_last_done = 0;
  for (auto& f : light_futs) {
    const svc::Result r = f.get();
    ASSERT_EQ(r.status, svc::Status::ok);
    EXPECT_EQ(r.tenant, 2u);
    light_last_done = std::max(light_last_done, r.done_ns);
  }
  int heavy_after_light = 0;
  for (auto& f : heavy_futs) {
    const svc::Result r = f.get();
    ASSERT_EQ(r.status, svc::Status::ok);
    if (r.done_ns > light_last_done) ++heavy_after_light;
  }
  // The flood is 16 requests = 1 wedged + 4 fair-rotation dispatches; the
  // light bucket must overtake all but the first post-release heavy
  // dispatch, leaving at least the last two heavy dispatches (7 requests)
  // behind it. Assert half that for scheduling-noise headroom.
  EXPECT_GE(heavy_after_light, 4)
      << "light tenant waited behind the heavy backlog";

  const svc::TransformService::Stats stats = service.stats();
  ASSERT_TRUE(stats.tenants.count(1));
  ASSERT_TRUE(stats.tenants.count(2));
  EXPECT_EQ(stats.tenants.at(1).served, static_cast<std::uint64_t>(kHeavy));
  EXPECT_EQ(stats.tenants.at(2).served, static_cast<std::uint64_t>(kLight));
}

// Admission quotas: a tenant with max_queued = 2 gets exactly 2 requests
// in flight; further submissions shed immediately with Status::overloaded
// and are tallied as quota rejections, without consuming queue capacity.
TEST(Svc, TenantQuotaShedsExcessOutstanding) {
  const index_t wedge_n = 128;
  const std::string grammar =
      plan::to_string(*svc::default_tree(svc::Kind::fft, wedge_n));
  const fft::PlanCache::Entry entry = fft::PlanCache::instance().get(grammar);

  svc::ServiceConfig cfg = test_config();
  cfg.queue_capacity = 32;
  cfg.tenants.push_back({/*id=*/7, /*weight=*/1, /*max_queued=*/2});
  svc::TransformService service(cfg);

  std::vector<std::vector<cplx>> data;
  std::vector<std::future<svc::Result>> admitted;
  {
    const std::lock_guard<std::mutex> wedge(*entry.guard);
    data.emplace_back(random_signal(wedge_n, 70));
    admitted.push_back(service.submit_fft(data.back()));  // tenant 0 wedges
    wait_for_empty_backlog(service);

    int quota_sheds = 0;
    for (int i = 0; i < 4; ++i) {
      data.emplace_back(random_signal(64, 71 + static_cast<std::uint64_t>(i)));
      std::future<svc::Result> f =
          service.submit_fft(data.back(), svc::Direction::forward, 0, /*tenant=*/7);
      if (f.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
        const svc::Result r = f.get();
        EXPECT_EQ(r.status, svc::Status::overloaded);
        EXPECT_EQ(r.tenant, 7u);
        ++quota_sheds;
      } else {
        admitted.push_back(std::move(f));
      }
    }
    EXPECT_EQ(quota_sheds, 2);
  }
  for (auto& f : admitted) EXPECT_EQ(f.get().status, svc::Status::ok);

  const svc::TransformService::Stats stats = service.stats();
  EXPECT_EQ(stats.quota_rejected, 2u);
  ASSERT_TRUE(stats.tenants.count(7));
  EXPECT_EQ(stats.tenants.at(7).submitted, 2u);
  EXPECT_EQ(stats.tenants.at(7).shed, 2u);
  EXPECT_EQ(stats.tenants.at(7).served, 2u);
}

// The priority lane: critical_reserve slots admit critical requests after
// normal traffic is already shed, and a ready critical bucket dispatches
// ahead of the fair rotation.
TEST(Svc, CriticalLaneReservesAdmissionAndDispatchesFirst) {
  const index_t wedge_n = 128;
  const std::string grammar =
      plan::to_string(*svc::default_tree(svc::Kind::fft, wedge_n));
  const fft::PlanCache::Entry entry = fft::PlanCache::instance().get(grammar);

  svc::ServiceConfig cfg = test_config();
  cfg.queue_capacity = 4;
  cfg.max_batch = 4;
  cfg.critical_reserve = 2;
  svc::TransformService service(cfg);

  std::vector<std::vector<cplx>> data;
  std::vector<std::future<svc::Result>> normal_futs;
  std::vector<std::future<svc::Result>> critical_futs;
  int normal_shed = 0;
  {
    const std::lock_guard<std::mutex> wedge(*entry.guard);
    data.emplace_back(random_signal(wedge_n, 80));
    normal_futs.push_back(service.submit_fft(data.back()));
    wait_for_empty_backlog(service);

    // Normal traffic may use capacity - reserve = 2 slots; the third
    // normal submission sheds while both critical submissions land.
    for (int i = 0; i < 3; ++i) {
      data.emplace_back(random_signal(64, 81 + static_cast<std::uint64_t>(i)));
      std::future<svc::Result> f = service.submit_fft(data.back());
      if (f.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
        EXPECT_EQ(f.get().status, svc::Status::overloaded);
        ++normal_shed;
      } else {
        normal_futs.push_back(std::move(f));
      }
    }
    EXPECT_EQ(normal_shed, 1);
    // A distinct tenant, so tenant 0's per-tenant quota (held by the wedged
    // request plus the two queued normals) does not mask the lane reserve.
    for (int i = 0; i < 2; ++i) {
      data.emplace_back(random_signal(64, 91 + static_cast<std::uint64_t>(i)));
      std::future<svc::Result> f = service.submit_fft(
          data.back(), svc::Direction::forward, 0, /*tenant=*/9, /*critical=*/true);
      ASSERT_NE(f.wait_for(std::chrono::seconds(0)), std::future_status::ready)
          << "critical submission was shed despite the reserve";
      critical_futs.push_back(std::move(f));
    }
  }

  std::uint64_t critical_last = 0;
  for (auto& f : critical_futs) {
    const svc::Result r = f.get();
    ASSERT_EQ(r.status, svc::Status::ok);
    critical_last = std::max(critical_last, r.done_ns);
  }
  // The wedged normal dispatch predates the release; every other normal
  // request must complete after the critical lane cleared.
  std::uint64_t normal_queued_first = ~std::uint64_t{0};
  for (std::size_t i = 1; i < normal_futs.size(); ++i) {
    const svc::Result r = normal_futs[i].get();
    ASSERT_EQ(r.status, svc::Status::ok);
    normal_queued_first = std::min(normal_queued_first, r.done_ns);
  }
  EXPECT_LE(critical_last, normal_queued_first);
  EXPECT_EQ(normal_futs.front().get().status, svc::Status::ok);
  EXPECT_GE(service.stats().critical_batches, 1u);
}

// Tenant/lane config rules carry positioned paths through the verifier and
// gate service construction.
TEST(Svc, TenantAndLaneConfigRulesGateConstruction) {
  svc::ServiceConfig bad = test_config();
  bad.tenants.push_back({/*id=*/1, /*weight=*/0, /*max_queued=*/0});
  EXPECT_THROW(svc::TransformService{bad}, std::invalid_argument);

  bad = test_config();
  bad.tenants.push_back({1, 1, 0});
  bad.tenants.push_back({1, 2, 0});  // duplicate id
  EXPECT_THROW(svc::TransformService{bad}, std::invalid_argument);

  bad = test_config();
  bad.critical_reserve = bad.queue_capacity;  // no slot left for normal work
  EXPECT_THROW(svc::TransformService{bad}, std::invalid_argument);

  verify::ServiceLimits limits;
  limits.queue_capacity = 8;
  limits.max_batch = 4;
  limits.min_points = 2;
  limits.max_points = 1 << 20;
  limits.tenants.push_back({/*id=*/3, /*weight=*/verify::kMaxTenantWeight + 1,
                            /*max_queued=*/9});
  limits.critical_reserve = 8;
  const verify::Report report = verify::verify_service_config(limits);
  EXPECT_TRUE(report.has(verify::Rule::svc_tenant_policy));
  EXPECT_TRUE(report.has(verify::Rule::svc_lane_rules));
  bool positioned = false;
  for (const auto& d : report.diagnostics) {
    positioned = positioned || d.node_path == "config.tenants[0].weight";
  }
  EXPECT_TRUE(positioned);
}

// ServiceConfig::cost_db and ::wisdom are borrowed, so two services may
// share one CostDb/Wisdom pair. Each batcher thread cold-plans its own
// first-seen sizes; the process-wide planning mutex must serialize their
// store accesses (the tsan preset runs this), every plan must land in the
// shared wisdom, and each result must be exactly what the recorded tree
// computes.
TEST(Svc, TwoServicesShareStoresWhileColdPlanning) {
  plan::CostDb costs;
  plan::Wisdom wisdom;
  svc::ServiceConfig cfg = test_config();
  cfg.plan_dp = true;
  cfg.cost_db = &costs;
  cfg.wisdom = &wisdom;
  svc::TransformService a(cfg);
  svc::TransformService b(cfg);

  const std::array<std::vector<index_t>, 2> sizes = {
      std::vector<index_t>{256, 1024, 4096}, std::vector<index_t>{512, 2048, 8192}};
  std::array<svc::TransformService*, 2> services = {&a, &b};
  std::array<std::vector<std::vector<cplx>>, 2> inputs;
  std::array<std::vector<std::vector<cplx>>, 2> outputs;
  std::atomic<int> not_ok{0};
  {
    std::vector<std::thread> producers;  // ddl-lint: allow(raw-thread)
    for (std::size_t p = 0; p < 2; ++p) {
      producers.emplace_back([&, p] {
        for (const index_t n : sizes[p]) {
          std::vector<cplx> data = random_signal(n, 70 + static_cast<std::uint64_t>(n));
          inputs[p].push_back(data);
          if (services[p]->submit_fft(data).get().status != svc::Status::ok) {
            not_ok.fetch_add(1);
          }
          outputs[p].push_back(std::move(data));
        }
      });
    }
    for (auto& t : producers) t.join();
  }
  a.drain();
  b.drain();
  EXPECT_EQ(not_ok.load(), 0);
  EXPECT_EQ(a.stats().fallback_plans + b.stats().fallback_plans, 0u);

  for (std::size_t p = 0; p < 2; ++p) {
    for (std::size_t i = 0; i < sizes[p].size(); ++i) {
      const index_t n = sizes[p][i];
      const auto hit = wisdom.recall("fft", "ddl_dp", n);
      ASSERT_TRUE(hit.has_value()) << "n=" << n;
      std::vector<cplx> expect = inputs[p][i];
      fft::FftExecutor exec(*plan::parse_tree(hit->tree));
      exec.forward(expect);
      for (index_t k = 0; k < n; ++k) {
        ASSERT_EQ(outputs[p][i][k].real(), expect[k].real()) << "n=" << n << " k=" << k;
        ASSERT_EQ(outputs[p][i][k].imag(), expect[k].imag()) << "n=" << n << " k=" << k;
      }
    }
  }
}

}  // namespace
}  // namespace ddl
