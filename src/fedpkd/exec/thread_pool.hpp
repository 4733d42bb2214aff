#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace fedpkd::exec {

/// A fixed-size pool of persistent worker threads driving `parallel_for`
/// range splits and `parallel_for_each` claim-ordered fan-outs. Deliberately
/// work-stealing-free: a job is a list of chunks behind one atomic cursor,
/// and the caller and the workers *claim* chunks from it. parallel_for splits
/// [0, n) into at most `size()` contiguous chunks with boundaries fixed by
/// (n, lanes) alone; parallel_for_each makes every index its own chunk and
/// hands them out in a caller-given order (costliest first), so a lane that
/// finishes early takes the next index instead of idling behind a fixed
/// share. Which thread runs a chunk varies; what a chunk computes never does.
///
/// Dispatch is allocation-free: a run() call keeps its job descriptor on the
/// caller's stack and enqueues raw pointers to it into a pre-sized ring, so
/// the hot path never touches the heap (no std::function, no shared_ptr).
///
/// Determinism contract: a chunk body must write only state owned by its
/// index range, so results are bitwise independent of chunk boundaries,
/// claim order and thread count. Reductions across indices belong in the
/// caller, after run() returns, in index order.
///
/// Nested parallelism is governed by a lane *budget*: an outer job that
/// runs on L lanes grants each lane a budget of floor(avail / L) lanes for
/// nested calls, so the total number of concurrently executing lanes never
/// exceeds the pool size (no oversubscription). With the common full-width
/// outer job the budget is 1 and nested calls run inline. Nested waits
/// cannot deadlock: a nested caller claims chunks from its own job until the
/// cursor is exhausted, so it only ever waits on chunks that another live
/// thread is actively executing.
class ThreadPool {
 public:
  /// `num_threads` is the total number of concurrent lanes including the
  /// caller; the pool spawns num_threads - 1 workers. 1 = fully inline.
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size() + 1; }

  /// Type-erased chunk body: fn(ctx, begin, end).
  using ChunkFn = void (*)(void*, std::size_t, std::size_t);

  /// Runs body(begin, end) over contiguous chunks covering [0, n) and blocks
  /// until every chunk finished. Rethrows the first exception a chunk threw
  /// (the remaining chunks still run to completion, so the pool stays
  /// reusable). `max_lanes` caps the split (0 = no extra cap); the effective
  /// lane count is additionally clamped by n, the pool size, the calling
  /// thread's nesting budget, and any ScopedThreadLimit.
  template <typename Body>
  void run(std::size_t n, Body&& body, std::size_t max_lanes = 0) {
    using Plain = std::remove_reference_t<Body>;
    run_chunks(
        n, max_lanes,
        [](void* ctx, std::size_t begin, std::size_t end) {
          (*static_cast<Plain*>(ctx))(begin, end);
        },
        const_cast<void*>(static_cast<const void*>(std::addressof(body))));
  }

  /// The allocation-free core behind run(). Public so call sites that already
  /// have a function pointer + context can skip the template shim.
  void run_chunks(std::size_t n, std::size_t max_lanes, ChunkFn fn, void* ctx);

  /// The core behind parallel_for_each: fn(ctx, i, i + 1) for every index i
  /// of `order` (n entries, a permutation of [0, n)), claimed one at a time
  /// in that order. Every index runs even after another threw; the first
  /// exception is rethrown. Lanes and nesting budget as in run_chunks.
  void run_ordered(const std::size_t* order, std::size_t n, ChunkFn fn,
                   void* ctx);

  /// run_ordered's one-lane path: fn(ctx, order[c], order[c] + 1) for c in
  /// [0, n) on the calling thread, every index even after a throw; rethrows
  /// the first exception.
  static void run_ordered_inline(const std::size_t* order, std::size_t n,
                                 ChunkFn fn, void* ctx);

  /// True while the calling thread is executing a chunk body.
  static bool in_parallel_region();

  /// Lanes a nested parallel_for on the calling thread may still fan out to.
  /// 1 (the common case) means nested calls run inline. Meaningful only while
  /// in_parallel_region().
  static std::size_t lane_budget();

 private:
  struct Job;

  void worker_loop();
  void run_job(std::size_t n, std::size_t max_lanes, const std::size_t* order,
               ChunkFn fn, void* ctx);
  void push_shares(Job* job, std::size_t shares);
  static void execute_chunks(Job& job);
  void finish_share(Job* job);

  std::vector<std::thread> workers_;
  std::vector<Job*> ring_;  // circular buffer of queued job shares
  std::size_t ring_head_ = 0;
  std::size_t ring_count_ = 0;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  /// Completion signalling for run_chunks' wait. Pool-owned (NOT per-Job) on
  /// purpose: jobs live on their caller's stack, and a worker that locked a
  /// mutex inside the Job to notify could still be touching it while the
  /// caller — having already observed refs == 0 — pops the frame. With the
  /// sync objects here, a worker's final access to a Job is the refs
  /// decrement itself, so caller-side destruction can never race a notify.
  std::mutex done_mutex_;
  std::condition_variable done_cv_;
};

/// Upper bound the current thread places on its own parallel_for fan-out
/// while alive (models a weak device that owns fewer cores). 0 = no extra
/// limit. Limits nest: the tightest one wins.
class ScopedThreadLimit {
 public:
  explicit ScopedThreadLimit(std::size_t limit);
  ~ScopedThreadLimit();
  ScopedThreadLimit(const ScopedThreadLimit&) = delete;
  ScopedThreadLimit& operator=(const ScopedThreadLimit&) = delete;

  static std::size_t current();  // 0 = unlimited

 private:
  std::size_t previous_;
};

/// Number of hardware threads (>= 1).
std::size_t hardware_threads();

/// Configures the process-wide pool used by parallel_for. n lanes total;
/// 1 (the default) keeps every loop serial, 0 means hardware_threads().
/// Not safe to call while parallel work is in flight.
void set_num_threads(std::size_t n);

/// Current lane count of the process-wide pool.
std::size_t num_threads();

/// The process-wide pool (created on first use).
ThreadPool& global_pool();

/// Lanes a parallel loop on the calling thread may use: the global pool at
/// top level, the nesting budget inside a region, capped by any
/// ScopedThreadLimit.
inline std::size_t available_lanes() {
  std::size_t budget = ThreadPool::in_parallel_region()
                           ? ThreadPool::lane_budget()
                           : num_threads();
  const std::size_t cap = ScopedThreadLimit::current();
  if (cap != 0 && cap < budget) budget = cap;
  return budget;
}

/// Runs body(begin, end) over chunks of [0, n) on the global pool. `grain`
/// is the minimum indices per lane: the split uses at most ceil(n / grain)
/// lanes, so small loops stay serial instead of paying a pool hand-off that
/// costs more than the work. Serial (one inline body(0, n) call) when the
/// resulting lane count is 1 — because the pool has one lane, n <= grain, a
/// ScopedThreadLimit of 1 is active, or the calling thread's nesting budget
/// is exhausted.
template <typename Body>
void parallel_for(std::size_t n, std::size_t grain, Body&& body) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  const std::size_t max_chunks = (n + grain - 1) / grain;
  const std::size_t lanes = std::min(available_lanes(), max_chunks);
  if (lanes <= 1) {
    body(std::size_t{0}, n);
    return;
  }
  global_pool().run(n, body, lanes);
}

/// Grain-1 convenience overload: every index may be its own lane. Right for
/// coarse loops of equal-cost items (one client build per index); give finer
/// loops an explicit grain, and items of unequal cost to parallel_for_each.
template <typename Body>
void parallel_for(std::size_t n, Body&& body) {
  parallel_for(n, std::size_t{1}, std::forward<Body>(body));
}

/// Runs body(i, i + 1) once for every index of `order`, a permutation of
/// [0, order.size()), on the global pool. Lanes claim one index at a time, in
/// `order`, so a client-level loop whose items differ in cost should pass
/// costliest_first(costs): the biggest items start first and the small ones
/// fill the lanes that free up, instead of one lane owning a fixed pair.
/// Lane count and nesting budget follow parallel_for at grain 1; every index
/// runs even after another threw, and the first exception is rethrown. With
/// one lane the body runs inline, in `order`.
template <typename Body>
void parallel_for_each(const std::vector<std::size_t>& order, Body&& body) {
  const std::size_t n = order.size();
  if (n == 0) return;
  using Plain = std::remove_reference_t<Body>;
  const ThreadPool::ChunkFn fn = [](void* ctx, std::size_t begin,
                                    std::size_t end) {
    (*static_cast<Plain*>(ctx))(begin, end);
  };
  void* ctx = const_cast<void*>(static_cast<const void*>(std::addressof(body)));
  if (std::min(available_lanes(), n) <= 1) {
    ThreadPool::run_ordered_inline(order.data(), n, fn, ctx);
    return;
  }
  global_pool().run_ordered(order.data(), n, fn, ctx);
}

/// Indices of `costs` by descending cost, ties by lower index: the claim
/// order for parallel_for_each over items of unequal cost.
std::vector<std::size_t> costliest_first(const std::vector<std::size_t>& costs);

/// Scalar ops a lane must amortize before a fine-grained loop is worth
/// handing to the pool; below this the wakeup + claim traffic beats the work.
constexpr std::size_t kMinOpsPerLane = std::size_t{1} << 16;

/// Grain for a loop whose body costs ~ops_per_index scalar ops per index:
/// enough indices per lane that each chunk clears kMinOpsPerLane.
inline std::size_t grain_for_cost(std::size_t ops_per_index) {
  return std::max<std::size_t>(
      1, kMinOpsPerLane / std::max<std::size_t>(1, ops_per_index));
}

}  // namespace fedpkd::exec
