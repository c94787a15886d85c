#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace scod {

/// Fork-join thread pool with persistent workers.
///
/// The paper parallelizes three stages (propagation+insertion, per-cell
/// conjunction detection, PCA/TCA refinement) with OpenMP; this pool plays
/// the same role with explicit control over the thread count, which the
/// thread-scaling experiment of Section V-C2 sweeps from 1 to the hardware
/// maximum.
///
/// The calling thread always participates in the work, so a pool created
/// with `threads == 1` runs everything inline with zero synchronization
/// overhead — that configuration is the single-thread baseline of the
/// speedup measurements.
///
/// A pool with workers runs one job at a time: any number of threads may
/// submit to it one after another, but a submission while another job is
/// in flight — from a second thread, or nested inside the running job —
/// throws std::logic_error instead of taking the workers over. Threads
/// that work at once need distinct pools.
class ThreadPool {
 public:
  /// `threads` is the total number of worker contexts including the caller;
  /// 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const { return workers_.size() + 1; }

  /// Runs `fn(worker_id)` once on every worker context (ids in
  /// [0, thread_count()), the caller gets id thread_count()-1) and returns
  /// when all invocations finished. Exceptions thrown by any invocation are
  /// rethrown on the caller (first one wins). Throws std::logic_error,
  /// before running anything, while another job is in flight on a pool
  /// with workers; a one-thread pool runs `fn(0)` inline every time.
  void run_on_all(const std::function<void(std::size_t)>& fn);

  /// Dynamic-chunked parallel loop over [0, n). `body(i)` must be safe to
  /// call concurrently for distinct i. `grain` is the chunk size handed to
  /// a worker at a time; 0 picks a heuristic.
  template <typename Body>
  void parallel_for(std::size_t n, Body&& body, std::size_t grain = 0) {
    if (n == 0) return;
    if (thread_count() == 1 || n == 1) {
      for (std::size_t i = 0; i < n; ++i) body(i);
      return;
    }
    if (grain == 0) grain = heuristic_grain(n);
    std::atomic<std::size_t> next{0};
    run_on_all([&](std::size_t) {
      for (;;) {
        const std::size_t begin = next.fetch_add(grain, std::memory_order_relaxed);
        if (begin >= n) break;
        const std::size_t end = std::min(begin + grain, n);
        for (std::size_t i = begin; i < end; ++i) body(i);
      }
    });
  }

  /// Like parallel_for but hands whole ranges to the body:
  /// `body(begin, end)`. Useful when the body amortizes per-chunk setup.
  template <typename Body>
  void parallel_for_ranges(std::size_t n, Body&& body, std::size_t grain = 0) {
    if (n == 0) return;
    if (thread_count() == 1) {
      body(std::size_t{0}, n);
      return;
    }
    if (grain == 0) grain = heuristic_grain(n);
    std::atomic<std::size_t> next{0};
    run_on_all([&](std::size_t) {
      for (;;) {
        const std::size_t begin = next.fetch_add(grain, std::memory_order_relaxed);
        if (begin >= n) break;
        body(begin, std::min(begin + grain, n));
      }
    });
  }

 private:
  std::size_t heuristic_grain(std::size_t n) const {
    const std::size_t chunks = 8 * thread_count();
    return std::max<std::size_t>(1, n / chunks);
  }

  void worker_loop(std::size_t id);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::size_t generation_ = 0;
  std::size_t active_ = 0;
  bool stopping_ = false;
  std::exception_ptr first_error_;
};

/// Process-wide default pool sized to the hardware; library entry points use
/// it when the caller does not supply a pool explicitly.
ThreadPool& global_thread_pool();

}  // namespace scod
