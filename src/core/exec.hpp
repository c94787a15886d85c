#pragma once

#include <algorithm>
#include <mutex>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/report.hpp"
#include "obs/telemetry.hpp"

namespace scod::detail {

inline ThreadPool& pool_of(const ScreeningConfig& config) {
  return config.pool != nullptr ? *config.pool : global_thread_pool();
}

/// Dispatches a data-parallel index space to the configured backend: the
/// CPU thread pool, or a devicesim kernel launch (one logical thread per
/// index — the paper's one-thread-per-tuple GPU decomposition).
template <typename Fn>
void execute(const ScreeningConfig& config, std::size_t n, Fn&& fn) {
  if (config.device != nullptr) {
    config.device->launch(n, 256, std::forward<Fn>(fn));
  } else {
    pool_of(config).parallel_for(n, std::forward<Fn>(fn));
  }
}

/// Step 4 (Brent refinement) in the kernel style grid and hybrid share:
/// one logical thread per task, and the few tasks that yield a conjunction
/// hand it in with their task index. The conjunctions are then put in task
/// order, so the raw conjunctions do not depend on scheduling. One object
/// can serve several phases (grid refines round by round) and keeps its
/// buffer.
class RefineSlots {
 public:
  /// Runs `refine(i, slot)` for every task i in [0, tasks) on the
  /// configured backend; it returns true and writes `slot` when task i
  /// yields a conjunction. Appends those to `raw` in task order and counts
  /// them as kConjunctionsRaw.
  template <typename Refine>
  void run(const ScreeningConfig& config, std::size_t tasks, Refine&& refine,
           std::vector<Conjunction>& raw) {
    found_.clear();
    std::mutex found_mutex;
    execute(config, tasks, [&](std::size_t i) {
      Conjunction slot;
      if (refine(i, slot)) {
        const std::lock_guard<std::mutex> lock(found_mutex);
        found_.emplace_back(i, slot);
      }
    });
    std::sort(found_.begin(), found_.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [task, conjunction] : found_) raw.push_back(conjunction);
    obs::count(obs::Counter::kConjunctionsRaw, found_.size());
  }

 private:
  /// The conjunctions found, each with its task index.
  std::vector<std::pair<std::size_t, Conjunction>> found_;
};

}  // namespace scod::detail
