#include "fedpkd/exec/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <stdexcept>

namespace fedpkd::exec {

namespace {

thread_local bool t_in_parallel_region = false;
thread_local std::size_t t_lane_budget = 1;
thread_local std::size_t t_thread_limit = 0;  // 0 = unlimited

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

}  // namespace

/// One in-flight run() call. Lives on the caller's stack for the duration of
/// the call; workers only ever hold a raw pointer while `refs` accounts for
/// them, so the caller can safely return (and pop the frame) once refs hits
/// zero. The safety invariant making that destruction race-free: a worker's
/// LAST access to the Job is the refs decrement in finish_share — completion
/// is signalled through the pool-owned done_mutex_/done_cv_, which outlive
/// every job. alignas keeps the hot atomics off neighboring stack lines.
struct alignas(64) ThreadPool::Job {
  ChunkFn fn = nullptr;
  void* ctx = nullptr;
  std::size_t chunks = 0;  // claimable chunks: the lanes, or n when ordered
  const std::size_t* order = nullptr;  // chunk c is index order[c], if set
  std::size_t base = 0;  // chunk length; first `rem` chunks get one extra
  std::size_t rem = 0;
  std::size_t child_budget = 1;
  std::atomic<std::size_t> next{0};  // chunk claim cursor
  std::atomic<std::size_t> refs{0};  // worker shares not yet finished
  std::mutex error_mutex;  // taken only on a chunk failure, before the
                           // share's refs decrement — so never after refs==0
  std::exception_ptr error;  // first chunk failure; guarded by error_mutex
};

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    throw std::invalid_argument("ThreadPool: need at least one lane");
  }
  // Sized for the worst nesting case (every lane running a nested job with
  // pool-wide shares); grown under the queue mutex if that's ever exceeded.
  ring_.resize(std::max<std::size_t>(4 * num_threads, 16), nullptr);
  workers_.reserve(num_threads - 1);
  for (std::size_t i = 0; i + 1 < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

bool ThreadPool::in_parallel_region() { return t_in_parallel_region; }

std::size_t ThreadPool::lane_budget() { return t_lane_budget; }

void ThreadPool::push_shares(Job* job, std::size_t shares) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (ring_count_ + shares > ring_.size()) {
      std::vector<Job*> grown(std::max(2 * ring_.size(), ring_count_ + shares),
                              nullptr);
      for (std::size_t i = 0; i < ring_count_; ++i) {
        grown[i] = ring_[(ring_head_ + i) % ring_.size()];
      }
      ring_ = std::move(grown);
      ring_head_ = 0;
    }
    for (std::size_t i = 0; i < shares; ++i) {
      ring_[(ring_head_ + ring_count_) % ring_.size()] = job;
      ++ring_count_;
    }
  }
  if (shares == 1) {
    cv_.notify_one();
  } else {
    cv_.notify_all();
  }
}

void ThreadPool::execute_chunks(Job& job) {
  const bool prev_region = t_in_parallel_region;
  const std::size_t prev_budget = t_lane_budget;
  t_in_parallel_region = true;
  t_lane_budget = job.child_budget;
  for (;;) {
    const std::size_t c = job.next.fetch_add(1, std::memory_order_relaxed);
    if (c >= job.chunks) break;
    std::size_t begin;
    std::size_t end;
    if (job.order != nullptr) {
      begin = job.order[c];
      end = begin + 1;
    } else {
      begin = c * job.base + std::min(c, job.rem);
      end = begin + job.base + (c < job.rem ? 1 : 0);
    }
    try {
      job.fn(job.ctx, begin, end);
    } catch (...) {
      std::lock_guard<std::mutex> lock(job.error_mutex);
      if (!job.error) job.error = std::current_exception();
    }
  }
  t_in_parallel_region = prev_region;
  t_lane_budget = prev_budget;
}

void ThreadPool::finish_share(Job* job) {
  // This decrement is the worker's final access to *job: once the caller in
  // run_chunks observes refs == 0 (spin or condvar predicate) it may pop the
  // Job's stack frame, so nothing after the fetch_sub may dereference job.
  // Completion is therefore signalled on the pool-owned done_mutex_/done_cv_.
  if (job->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Last worker out: the caller may be asleep waiting for refs to drain.
    // Locking done_mutex_ first closes the missed-wakeup window against the
    // caller's under-lock predicate check; notify_all because concurrent
    // (nested) jobs share the one condvar and the waiter we must wake may
    // not be the one notify_one would pick.
    std::lock_guard<std::mutex> lock(done_mutex_);
    done_cv_.notify_all();
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    Job* job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || ring_count_ != 0; });
      if (ring_count_ == 0) return;  // stop requested and queue drained
      job = ring_[ring_head_];
      ring_head_ = (ring_head_ + 1) % ring_.size();
      --ring_count_;
    }
    execute_chunks(*job);
    finish_share(job);
  }
}

void ThreadPool::run_chunks(std::size_t n, std::size_t max_lanes, ChunkFn fn,
                            void* ctx) {
  run_job(n, max_lanes, nullptr, fn, ctx);
}

void ThreadPool::run_ordered(const std::size_t* order, std::size_t n,
                             ChunkFn fn, void* ctx) {
  run_job(n, 0, order, fn, ctx);
}

void ThreadPool::run_ordered_inline(const std::size_t* order, std::size_t n,
                                    ChunkFn fn, void* ctx) {
  std::exception_ptr error;
  for (std::size_t c = 0; c < n; ++c) {
    try {
      fn(ctx, order[c], order[c] + 1);
    } catch (...) {
      if (!error) error = std::current_exception();
    }
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::run_job(std::size_t n, std::size_t max_lanes,
                         const std::size_t* order, ChunkFn fn, void* ctx) {
  if (n == 0) return;
  // Lanes this thread may occupy: the whole pool at top level, the nesting
  // budget inside a region, further capped by any ScopedThreadLimit.
  std::size_t avail = t_in_parallel_region ? t_lane_budget : size();
  if (t_thread_limit != 0) avail = std::min(avail, t_thread_limit);
  std::size_t lanes = std::min(avail, n);
  if (max_lanes != 0) lanes = std::min(lanes, max_lanes);
  if (lanes <= 1) {
    if (order != nullptr) {
      run_ordered_inline(order, n, fn, ctx);
    } else {
      fn(ctx, 0, n);
    }
    return;
  }

  Job job;
  job.fn = fn;
  job.ctx = ctx;
  job.chunks = order != nullptr ? n : lanes;
  job.order = order;
  job.base = n / lanes;
  job.rem = n % lanes;
  job.child_budget = std::max<std::size_t>(1, avail / lanes);
  const std::size_t shares = lanes - 1;
  job.refs.store(shares, std::memory_order_relaxed);
  push_shares(&job, shares);

  // The caller claims chunks like any worker; once the cursor is exhausted it
  // only waits on chunks other threads are actively executing, so nested
  // calls cannot deadlock.
  execute_chunks(job);

  // Observing refs == 0 — whether lock-free here, in the spin, or inside the
  // wait predicate — is sufficient to return and destroy the stack Job: the
  // decrement is each worker's last access to it (see finish_share).
  if (job.refs.load(std::memory_order_acquire) != 0) {
    // Brief spin covers the common "workers are just finishing" window
    // without a syscall; pointless on a single hardware thread.
    if (hardware_threads() > 1) {
      for (int i = 0; i < 2048; ++i) {
        if (job.refs.load(std::memory_order_acquire) == 0) break;
        cpu_relax();
      }
    }
    std::unique_lock<std::mutex> lock(done_mutex_);
    done_cv_.wait(lock, [&] {
      return job.refs.load(std::memory_order_acquire) == 0;
    });
  }
  if (job.error) std::rethrow_exception(job.error);
}

std::vector<std::size_t> costliest_first(const std::vector<std::size_t>& costs) {
  std::vector<std::size_t> order(costs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return costs[a] > costs[b];
                   });
  return order;
}

ScopedThreadLimit::ScopedThreadLimit(std::size_t limit)
    : previous_(t_thread_limit) {
  if (limit != 0) {
    t_thread_limit = previous_ == 0 ? limit : std::min(previous_, limit);
  }
}

ScopedThreadLimit::~ScopedThreadLimit() { t_thread_limit = previous_; }

std::size_t ScopedThreadLimit::current() { return t_thread_limit; }

std::size_t hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

namespace {

std::mutex g_pool_mutex;
std::unique_ptr<ThreadPool> g_pool;
std::atomic<std::size_t> g_num_threads{1};

}  // namespace

void set_num_threads(std::size_t n) {
  if (n == 0) n = hardware_threads();
  // A compute-bound pool gains nothing from more lanes than physical cores —
  // it just context-switch-thrashes — so oversubscribed requests clamp, and
  // say so on stderr (once) rather than silently: thread-sweep tests that
  // *mean* to exercise oversubscribed scheduling on a small host can force
  // it with FEDPKD_THREADS_OVERSUBSCRIBE=1. Chunk boundaries only depend on
  // the lane count actually used and results are chunking-invariant, so
  // neither the clamp nor the override can change any output.
  if (const std::size_t hw = hardware_threads(); n > hw) {
    const char* env = std::getenv("FEDPKD_THREADS_OVERSUBSCRIBE");
    if (env != nullptr && std::strcmp(env, "1") == 0) {
      // Keep the oversubscribed request.
    } else {
      static std::atomic<bool> warned{false};
      if (!warned.exchange(true)) {
        std::fprintf(stderr,
                     "fedpkd: clamping %zu requested lanes to %zu hardware "
                     "threads (FEDPKD_THREADS_OVERSUBSCRIBE=1 overrides)\n",
                     n, hw);
      }
      n = hw;
    }
  }
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (g_pool && g_pool->size() == n) return;
  g_pool.reset();  // join old workers before the count changes
  g_num_threads.store(n, std::memory_order_relaxed);
  if (n > 1) g_pool = std::make_unique<ThreadPool>(n);
}

std::size_t num_threads() {
  return g_num_threads.load(std::memory_order_relaxed);
}

ThreadPool& global_pool() {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (!g_pool) {
    g_pool = std::make_unique<ThreadPool>(
        g_num_threads.load(std::memory_order_relaxed));
  }
  return *g_pool;
}

}  // namespace fedpkd::exec
