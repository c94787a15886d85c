#pragma once

#include <cstddef>
#include <cstdint>

#include "model/conjunction_model.hpp"
#include "orbit/elements.hpp"

namespace scod {

// Per-satellite bytes of the fixed data in the memory model of Section V-B.
// The per-step table (a_gh + a_l) and candidate-buffer (a_ch) shares come
// from the structures themselves: CellList::projected_memory_bytes (a CPU
// full screen), GridHashSet::projected_memory_bytes (devicesim and masked
// screens) and CandidateBuffer::projected_memory_bytes. a_ch is reserved
// only for keys that outlive a round (devicesim's candidate buffer, the
// hybrid screener's whole-span keys); a CPU grid plan leaves
// candidate_capacity at 0, because its workers' key lists hold one round.

/// a_s: one Satellite record.
inline constexpr std::uint64_t kSatelliteBytes = sizeof(Satellite);
/// a_k: one satellite's row of the Kepler-solver data, the 14 doubles of
/// TwoBodySoA (five orbit terms and the nine-cell rotation).
inline constexpr std::uint64_t kKeplerCacheBytes = 14 * sizeof(double);

/// Inputs of the sample-parallelism plan.
struct SizingRequest {
  std::size_t satellites = 0;          ///< n
  double span_seconds = 0.0;           ///< t
  double seconds_per_sample = 1.0;     ///< s_ps
  /// c, from candidate_capacity_from_model(): keys that outlive a round
  /// (devicesim's buffer, hybrid's whole span); 0 for a CPU grid screen.
  std::size_t candidate_capacity = 0;
  std::uint64_t memory_budget = 0;     ///< m [bytes]
  /// Entries of one sample step's GridHashSet: 27k for a screen that
  /// registers k dirty objects in their 27-cell neighbourhoods, n for a
  /// devicesim full screen. 0 (the default) stands for a CPU full screen,
  /// whose step goes through a CellList of one entry per satellite.
  std::size_t grid_entries = 0;
  /// A CPU screen with two-body propagation: the worker holding each
  /// step's table also keeps one warm-start eccentric anomaly (a double)
  /// per satellite, charged with the table.
  bool warm_start = false;
};

/// The paper's equations: o = t / s_ps total samples, p parallel samples
/// per round from the free memory, r_c = o / p rounds.
struct SizingPlan {
  std::size_t total_samples = 0;     ///< o
  std::size_t parallel_samples = 0;  ///< p (>= 1 when fits)
  std::size_t rounds = 0;            ///< r_c
  std::uint64_t fixed_bytes = 0;     ///< a_s + a_k (+ a_ch on devicesim)
  std::uint64_t per_grid_bytes = 0;  ///< a_gh + a_l: one step's table (+ warm start)
  bool fits = false;                 ///< false when even p = 1 exceeds m
};

SizingPlan plan_samples(const SizingRequest& request);

/// The automatic seconds-per-sample adjustment of Section V-C, for a key
/// store that outlives a round (devicesim's candidate buffer, hybrid's
/// whole-span keys): when the store predicted by the model does not fit
/// into the memory budget, reduce s_ps (smaller cells produce
/// fewer candidate pairs; the paper's runs drop from 9 s to 4 s and 1 s at
/// 512k/1024k objects), down to a floor of 1 s. Returns the adjusted s_ps
/// and capacity; `feasible` reports whether the plan fits at them.
struct AutoAdjustResult {
  double seconds_per_sample = 0.0;
  std::size_t candidate_capacity = 0;
  bool feasible = false;
};

AutoAdjustResult auto_adjust_sps(const ConjunctionCountModel& model,
                                 SizingRequest request, double threshold_km);

}  // namespace scod
