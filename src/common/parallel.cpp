#include "ddl/common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "ddl/common/check.hpp"
#include "ddl/common/env.hpp"
#include "ddl/obs/obs.hpp"

namespace ddl::parallel {

namespace {

/// Set while a thread (worker or caller) executes chunk bodies; gates the
/// non-reentrancy rule.
thread_local bool t_in_region = false;

int env_threads() { return parse_env_threads(env::get("DDL_NUM_THREADS")); }

/// One fork-join dispatch. Lives in a shared_ptr so a worker that wakes
/// after the caller has already returned still holds valid memory; it will
/// find all chunks claimed and go back to sleep.
struct Job {
  index_t begin = 0;
  index_t chunk = 1;
  index_t nchunks = 0;
  index_t end = 0;
  int nslots = 1;
  const ChunkBody* body = nullptr;
  std::atomic<index_t> next{0};  // next unclaimed chunk
  std::atomic<index_t> done{0};  // completed chunks
  std::exception_ptr error;      // first failure, guarded by err_mutex
  std::mutex err_mutex;
};

class ThreadPool {
 public:
  static ThreadPool& instance() {
    static ThreadPool pool;
    return pool;
  }

  int target() {
    int t = target_.load(std::memory_order_relaxed);
    if (t == 0) {
      // First query: DDL_NUM_THREADS, else hardware concurrency.
      const int e = env_threads();
      t = e > 0 ? e : hardware_threads();
      int expected = 0;
      if (!target_.compare_exchange_strong(expected, t)) t = expected;
    }
    return t;
  }

  // The same [1, kMaxThreads] clamp env_threads() applies: before it, a
  // set_threads(1 << 20) call would have grown the worker vector without
  // bound on the next dispatch.
  void set_target(int n) {
    target_.store(std::clamp(n, 1, kMaxThreads), std::memory_order_relaxed);
  }

  void run(index_t begin, index_t end, index_t grain, const ChunkBody& body) {
    const index_t count = end - begin;
    const int nslots = target();
    // One dispatch at a time: concurrent callers queue up here. (Fan-out is
    // already non-reentrant per thread; this serializes distinct threads.)
    std::lock_guard<std::mutex> submit(submit_mutex_);
    ensure_workers(nslots - 1);

    auto job = std::make_shared<Job>();
    job->begin = begin;
    job->end = end;
    // Chunks of at least `grain`, but no finer than ~4 per lane: dynamic
    // claiming smooths imbalance without drowning in dispatch overhead.
    job->chunk = std::max(grain, (count + 4 * nslots - 1) / (4 * nslots));
    job->nchunks = (count + job->chunk - 1) / job->chunk;
    job->nslots = nslots;
    job->body = &body;

    // One dispatch event spans wake-up through join, so the trace shows
    // fork-join overhead around the chunks it fanned out.
    obs::count(obs::Counter::par_dispatches);
    const obs::ScopedStage dispatch_stage(obs::Stage::par_dispatch, job->nchunks, nslots);

    {
      std::lock_guard<std::mutex> lk(mutex_);
      job_ = job;
      ++epoch_;
    }
    cv_work_.notify_all();

    work_on(*job, /*slot=*/0);

    std::unique_lock<std::mutex> lk(mutex_);
    cv_done_.wait(lk, [&] { return job->done.load(std::memory_order_acquire) == job->nchunks; });
    job_.reset();
    lk.unlock();

    if (job->error) std::rethrow_exception(job->error);
  }

 private:
  ThreadPool() = default;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lk(mutex_);
      stop_ = true;
    }
    cv_work_.notify_all();
    for (auto& w : workers_) w.join();
  }

  void ensure_workers(int n) {
    while (static_cast<int>(workers_.size()) < n) {
      const int slot = static_cast<int>(workers_.size()) + 1;  // caller is slot 0
      workers_.emplace_back([this, slot] { worker_main(slot); });
    }
  }

  void worker_main(int slot) {
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lk(mutex_);
    for (;;) {
      cv_work_.wait(lk, [&] { return stop_ || (job_ != nullptr && epoch_ != seen); });
      if (stop_) return;
      seen = epoch_;
      auto job = job_;
      lk.unlock();
      // Lanes beyond the job's configured width sit this dispatch out, so
      // set_threads(k) uses exactly k lanes even if more workers exist.
      if (slot < job->nslots) work_on(*job, slot);
      lk.lock();
    }
  }

  /// Claim and execute chunks until none remain. Runs with the region flag
  /// set so recursive executor code inside `body` stays serial.
  void work_on(Job& job, int slot) {
    t_in_region = true;
    for (;;) {
      const index_t c = job.next.fetch_add(1, std::memory_order_relaxed);
      if (c >= job.nchunks) break;
      const index_t i0 = job.begin + c * job.chunk;
      const index_t i1 = std::min(job.end, i0 + job.chunk);
      {
        // Scope ends (and the event is recorded) before the done-counter
        // release below, so a snapshot taken after the join sees it.
        obs::count(obs::Counter::par_chunks);
        const obs::ScopedStage chunk_stage(obs::Stage::par_chunk, c, slot);
        try {
          (*job.body)(i0, i1, slot);
        } catch (...) {
          std::lock_guard<std::mutex> lk(job.err_mutex);
          if (!job.error) job.error = std::current_exception();
        }
      }
      if (job.done.fetch_add(1, std::memory_order_acq_rel) + 1 == job.nchunks) {
        std::lock_guard<std::mutex> lk(mutex_);  // pairs with the caller's wait
        cv_done_.notify_all();
      }
    }
    t_in_region = false;
  }

  std::mutex submit_mutex_;            // serializes dispatches from distinct threads
  std::mutex mutex_;                   // guards job_/epoch_/stop_ and the cvs
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::shared_ptr<Job> job_;
  std::uint64_t epoch_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;   // grown under submit_mutex_ only
  std::atomic<int> target_{0};         // 0 = not yet resolved from env/hw
};

}  // namespace

int hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int max_threads() { return ThreadPool::instance().target(); }

int parse_env_threads(const char* text) noexcept {
  // env::parse_int carries the strict trailing-garbage rejection this
  // function pioneered ("8abc" must be ignored, not parse as 8); the
  // thread-specific policy left here is just "non-positive means unset".
  const auto v = env::parse_int(text);
  if (!v || *v < 1) return 0;
  return static_cast<int>(std::min<long long>(*v, kMaxThreads));
}

void set_threads(int n) {
  DDL_REQUIRE(n >= 1, "thread count must be >= 1");
  ThreadPool::instance().set_target(n);
}

bool in_parallel_region() { return t_in_region; }

void parallel_for(index_t begin, index_t end, index_t grain, const ChunkBody& body) {
  DDL_REQUIRE(grain >= 1, "grain must be >= 1");
  const index_t count = end - begin;
  if (count <= 0) return;
  if (count <= grain || t_in_region || max_threads() <= 1) {
    obs::count(obs::Counter::par_serial_regions);
    body(begin, end, 0);  // deterministic serial fallback, caller's lane
    return;
  }
  ThreadPool::instance().run(begin, end, grain, body);
}

}  // namespace ddl::parallel
