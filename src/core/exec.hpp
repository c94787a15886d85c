#pragma once

#include <algorithm>
#include <cstdint>
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
/// one logical thread per task sets only its own flag byte, and the few
/// tasks that yield a conjunction hand it in with their task index. The
/// conjunctions are then put in task order, so the raw conjunctions do not
/// depend on scheduling. One object can serve several phases (grid refines
/// round by round) and keeps its buffers.
class RefineSlots {
 public:
  /// Flags a task returns: its Brent search ran, and it wrote its slot.
  static constexpr std::uint8_t kSearched = 1;
  static constexpr std::uint8_t kSlotValid = 2;

  /// Runs `refine(i, slot)` for every task i in [0, tasks) on the
  /// configured backend; it returns kSearched / kSlotValid and writes
  /// `slot` only when it returns kSlotValid. Appends the valid slots to
  /// `raw` in task order, counts them as kConjunctionsRaw, and returns the
  /// number of searches run.
  template <typename Refine>
  std::size_t run(const ScreeningConfig& config, std::size_t tasks, Refine&& refine,
                  std::vector<Conjunction>& raw) {
    flags_.assign(tasks, 0);
    found_.clear();
    std::mutex found_mutex;
    execute(config, tasks, [&](std::size_t i) {
      Conjunction slot;
      flags_[i] = refine(i, slot);
      if (flags_[i] & kSlotValid) {
        const std::lock_guard<std::mutex> lock(found_mutex);
        found_.emplace_back(i, slot);
      }
    });
    std::sort(found_.begin(), found_.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });

    std::size_t searches = 0;
    for (const std::uint8_t flags : flags_) {
      if (flags & kSearched) ++searches;
    }
    for (const auto& [task, conjunction] : found_) raw.push_back(conjunction);
    obs::count(obs::Counter::kConjunctionsRaw, found_.size());
    return searches;
  }

 private:
  std::vector<std::uint8_t> flags_;
  /// The valid slots, each with its task index.
  std::vector<std::pair<std::size_t, Conjunction>> found_;
};

}  // namespace scod::detail
