#pragma once

#include <cstdint>
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
/// one logical thread per task writes only its own fixed output slot, so
/// the phase is lock-free, and the slots are then collected in task order,
/// so the raw conjunctions do not depend on scheduling. One object can
/// serve several phases (grid refines round by round) and keeps its slots.
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
    slots_.resize(tasks);
    flags_.assign(tasks, 0);
    execute(config, tasks, [&](std::size_t i) { flags_[i] = refine(i, slots_[i]); });

    const std::size_t before = raw.size();
    std::size_t searches = 0;
    for (std::size_t i = 0; i < tasks; ++i) {
      if (flags_[i] & kSearched) ++searches;
      if (flags_[i] & kSlotValid) raw.push_back(slots_[i]);
    }
    obs::count(obs::Counter::kConjunctionsRaw, raw.size() - before);
    return searches;
  }

 private:
  std::vector<Conjunction> slots_;
  std::vector<std::uint8_t> flags_;
};

}  // namespace scod::detail
