#include "parallel/thread_pool.hpp"

#include <stdexcept>

namespace scod {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  workers_.reserve(threads - 1);
  for (std::size_t id = 0; id + 1 < threads; ++id) {
    workers_.emplace_back([this, id] { worker_loop(id); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_start_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop(std::size_t id) {
  std::size_t seen_generation = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    cv_start_.wait(lock, [&] { return stopping_ || generation_ != seen_generation; });
    if (stopping_) return;
    seen_generation = generation_;
    const auto* job = job_;
    lock.unlock();
    std::exception_ptr error;
    try {
      (*job)(id);
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    if (error && !first_error_) first_error_ = error;
    if (--active_ == 0) cv_done_.notify_one();
  }
}

void ThreadPool::run_on_all(const std::function<void(std::size_t)>& fn) {
  if (workers_.empty()) {
    fn(0);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (job_ != nullptr) {
      throw std::logic_error(
          "ThreadPool::run_on_all: a job is already in flight on this pool; "
          "concurrent submitters need distinct pools");
    }
    job_ = &fn;
    active_ = workers_.size();
    first_error_ = nullptr;
    ++generation_;
  }
  cv_start_.notify_all();

  std::exception_ptr caller_error;
  try {
    fn(workers_.size());  // The caller participates with the highest id.
  } catch (...) {
    caller_error = std::current_exception();
  }

  std::unique_lock<std::mutex> lock(mutex_);
  cv_done_.wait(lock, [&] { return active_ == 0; });
  job_ = nullptr;
  std::exception_ptr error = caller_error ? caller_error : first_error_;
  lock.unlock();
  if (error) std::rethrow_exception(error);
}

ThreadPool& global_thread_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace scod
