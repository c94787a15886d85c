#include "model/sizing.hpp"

#include <algorithm>
#include <cmath>

#include "spatial/conjunction_set.hpp"
#include "spatial/grid_hash_set.hpp"

namespace scod {

SizingPlan plan_samples(const SizingRequest& request) {
  SizingPlan plan;
  // o = t / s_ps sample intervals; +1 so both span endpoints are sampled
  // (the no-skip guarantee of Eq. 1 needs a sample within s_ps of every
  // instant of the span, including t_end).
  plan.total_samples = static_cast<std::size_t>(
      std::ceil(request.span_seconds / request.seconds_per_sample)) + 1;
  plan.total_samples = std::max<std::size_t>(plan.total_samples, 2);

  const std::uint64_t n = request.satellites;
  plan.fixed_bytes = n * (kSatelliteBytes + kKeplerCacheBytes) +
                     CandidateSet::projected_memory_bytes(request.candidate_capacity);
  plan.per_grid_bytes = GridHashSet::projected_memory_bytes(request.satellites);

  if (plan.fixed_bytes + plan.per_grid_bytes > request.memory_budget) {
    plan.fits = false;
    plan.parallel_samples = 0;
    plan.rounds = 0;
    return plan;
  }

  plan.fits = true;
  const std::uint64_t free_for_grids = request.memory_budget - plan.fixed_bytes;
  plan.parallel_samples = static_cast<std::size_t>(
      std::min<std::uint64_t>(free_for_grids / plan.per_grid_bytes, plan.total_samples));
  plan.parallel_samples = std::max<std::size_t>(plan.parallel_samples, 1);
  plan.rounds = (plan.total_samples + plan.parallel_samples - 1) / plan.parallel_samples;
  return plan;
}

AutoAdjustResult auto_adjust_sps(const ConjunctionCountModel& model,
                                 SizingRequest request, double threshold_km,
                                 double min_sps) {
  AutoAdjustResult result;
  result.seconds_per_sample = request.seconds_per_sample;

  for (;;) {
    result.candidate_capacity = candidate_capacity_from_model(
        model, static_cast<double>(request.satellites), result.seconds_per_sample,
        request.span_seconds, threshold_km);
    SizingRequest trial = request;
    trial.seconds_per_sample = result.seconds_per_sample;
    trial.candidate_capacity = result.candidate_capacity;
    if (plan_samples(trial).fits) {
      result.feasible = true;
      return result;
    }
    // The paper reduces s_ps in whole seconds (9 -> 4 -> 1); halving with a
    // 1-second floor matches that trajectory while staying scale-free.
    const double next = std::max(min_sps, std::floor(result.seconds_per_sample / 2.0));
    if (next >= result.seconds_per_sample) {
      result.feasible = false;  // already at the floor and still too large
      return result;
    }
    result.seconds_per_sample = next;
    result.changed = true;
  }
}

}  // namespace scod
