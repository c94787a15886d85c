#pragma once

#include <cstddef>
#include <cstdint>

#include "model/conjunction_model.hpp"
#include "orbit/elements.hpp"

namespace scod {

// Per-satellite bytes of the fixed data in the memory model of Section V-B.
// The grid (a_gh + a_l) and candidate-map (a_ch) shares come from the
// structures themselves: GridHashSet::projected_memory_bytes and
// CandidateSet::projected_memory_bytes.

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
  std::size_t candidate_capacity = 0;  ///< c, from candidate_capacity_from_model()
  std::uint64_t memory_budget = 0;     ///< m [bytes]
};

/// The paper's equations: o = t / s_ps total samples, p parallel samples
/// per round from the free memory, r_c = o / p rounds.
struct SizingPlan {
  std::size_t total_samples = 0;     ///< o
  std::size_t parallel_samples = 0;  ///< p (>= 1 when fits)
  std::size_t rounds = 0;            ///< r_c
  std::uint64_t fixed_bytes = 0;     ///< a_s + a_k + a_ch
  std::uint64_t per_grid_bytes = 0;  ///< a_gh + a_l
  bool fits = false;                 ///< false when even p = 1 exceeds m
};

SizingPlan plan_samples(const SizingRequest& request);

/// The automatic seconds-per-sample adjustment of Section V-C: when the
/// conjunction hash map predicted by the model does not fit into the
/// memory budget, reduce s_ps (smaller cells produce fewer candidate
/// pairs; the paper's runs drop from 9 s to 4 s and 1 s at 512k/1024k
/// objects). Returns the adjusted request; `changed` reports whether any
/// reduction was necessary, `feasible` whether even `min_sps` fits.
struct AutoAdjustResult {
  double seconds_per_sample = 0.0;
  std::size_t candidate_capacity = 0;
  bool changed = false;
  bool feasible = false;
};

AutoAdjustResult auto_adjust_sps(const ConjunctionCountModel& model,
                                 SizingRequest request, double threshold_km,
                                 double min_sps = 1.0);

}  // namespace scod
