#pragma once

#include <cstdint>

#include "parallel/device.hpp"
#include "parallel/thread_pool.hpp"

namespace scod {

/// Configuration of a conjunction-screening run, shared by all variants.
///
/// The defaults mirror the paper's evaluation setup scaled to laptop
/// hardware: a 2 km screening threshold ("typical for a rough screening
/// process") over a multi-hour span.
struct ScreeningConfig {
  /// Screening threshold d [km]: encounters with PCA below this are
  /// reported, everything above is discarded (Fig. 2).
  double threshold_km = 2.0;

  /// Screened time span [s] past epoch.
  double t_begin = 0.0;
  double t_end = 7200.0;

  /// Sampling period s_ps [s]. The grid variant wants small steps (small
  /// cells, few candidates); the hybrid variant samples less frequently
  /// and lets the orbital filters prune (Section III). Each screener has
  /// its own default; a value > 0 here overrides it.
  double seconds_per_sample = 0.0;

  /// Memory budget m [bytes] for the sizing model (Section V-B). For the
  /// devicesim backend the device's free memory is the budget instead.
  std::uint64_t memory_budget = 2ull << 30;

  /// Worker pool; nullptr uses the process-global pool.
  ThreadPool* pool = nullptr;

  /// When set, the screening runs on the devicesim backend: kernel-style
  /// launches, device-accounted memory, sizing against device memory —
  /// the stand-in for the paper's CUDA variants (see DESIGN.md).
  Device* device = nullptr;

  double span_seconds() const { return t_end - t_begin; }
};

}  // namespace scod
