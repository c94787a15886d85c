#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "obs/telemetry.hpp"
#include "pca/brent.hpp"
#include "propagation/propagator.hpp"

namespace scod {

/// A refined close approach of a satellite pair: the Time of Closest
/// Approach (TCA) and the distance at that time (PCA). See Fig. 2 of the
/// paper — an encounter is one local minimum of the pairwise distance.
struct Encounter {
  double tca = 0.0;  ///< [s] past epoch
  double pca = 0.0;  ///< [km]
};

/// Settings of the Brent-based TCA/PCA search (Section IV-C).
/// Absolute time tolerance of the Brent search [s].
inline constexpr double kRefineTimeTolerance = 1e-4;
/// Maximum Brent iterations per candidate.
inline constexpr int kRefineMaxIterations = 80;
/// How far beyond an interval edge to probe when the minimum lands on the
/// boundary, as a fraction of the interval radius.
inline constexpr double kEdgeProbeFraction = 0.05;

/// Radius of the search interval for a grid candidate: "t is the time it
/// takes the slower of both satellites to cross two cells" (Section IV-C).
double grid_search_radius(double cell_size, double slower_speed_km_s);

/// Functor-based core of refine_on_interval: `distance(t)` is the pairwise
/// distance objective. Exposed as a template so the screeners can pass a
/// devirtualized PairStateEvaluator closure instead of paying two virtual
/// dispatches per Brent evaluation; the Propagator overloads below wrap it.
template <typename DistanceFn>
std::optional<Encounter> refine_on_interval_fn(DistanceFn&& distance, double t_lo,
                                               double t_hi) {
  if (!(t_lo < t_hi)) return std::nullopt;

  const MinimizeResult min =
      brent_minimize(distance, t_lo, t_hi, kRefineTimeTolerance, kRefineMaxIterations);
  obs::count(obs::Counter::kRefinements);
  obs::count(obs::Counter::kBrentIterations,
             static_cast<std::uint64_t>(min.iterations));

  // Boundary handling (Section IV-C): when the search stops at an interval
  // edge, probe slightly beyond it. If the distance keeps falling, the
  // local minimum lies outside this interval — discard; the neighbouring
  // interval's search will find it. Otherwise the edge really is the
  // (clamped) minimum.
  const double radius = 0.5 * (t_hi - t_lo);
  const double probe = std::max(kEdgeProbeFraction * radius, 4.0 * kRefineTimeTolerance);
  const double edge_tol = 2.0 * kRefineTimeTolerance;

  if (min.x - t_lo <= edge_tol) {
    if (distance(t_lo - probe) < min.value) {
      obs::count(obs::Counter::kEdgeDiscards);
      return std::nullopt;
    }
  } else if (t_hi - min.x <= edge_tol) {
    if (distance(t_hi + probe) < min.value) {
      obs::count(obs::Counter::kEdgeDiscards);
      return std::nullopt;
    }
  }

  return Encounter{min.x, min.value};
}

/// Functor-based core of refine_candidate (grid-style search interval
/// [center - radius, center + radius] clamped to the simulation span).
template <typename DistanceFn>
std::optional<Encounter> refine_candidate_fn(DistanceFn&& distance, double center,
                                             double radius, double t_min, double t_max) {
  const double t_lo = std::max(center - radius, t_min);
  const double t_hi = std::min(center + radius, t_max);
  if (!(t_lo < t_hi)) return std::nullopt;
  if (center - radius < t_min || center + radius > t_max) {
    obs::count(obs::Counter::kWindowClamps);
  }

  const MinimizeResult min =
      brent_minimize(distance, t_lo, t_hi, kRefineTimeTolerance, kRefineMaxIterations);
  obs::count(obs::Counter::kRefinements);
  obs::count(obs::Counter::kBrentIterations,
             static_cast<std::uint64_t>(min.iterations));

  const double probe = std::max(kEdgeProbeFraction * radius, 4.0 * kRefineTimeTolerance);
  const double edge_tol = 2.0 * kRefineTimeTolerance;

  // At the simulation-span boundary the minimum cannot be discarded — there
  // is no neighbouring interval beyond the span; report the clamped value.
  if (min.x - t_lo <= edge_tol && t_lo > t_min) {
    if (distance(std::max(t_lo - probe, t_min)) < min.value) {
      obs::count(obs::Counter::kEdgeDiscards);
      return std::nullopt;
    }
  } else if (t_hi - min.x <= edge_tol && t_hi < t_max) {
    if (distance(std::min(t_hi + probe, t_max)) < min.value) {
      obs::count(obs::Counter::kEdgeDiscards);
      return std::nullopt;
    }
  }

  return Encounter{min.x, min.value};
}

/// Grid-style refinement of a candidate flagged at sample time `t_sample`:
/// "t is the time it takes the slower of both satellites to cross two
/// cells, which we can calculate simply by using the velocity vector at
/// that time step" (Section IV-C). `eval` is a pair evaluator
/// (distance / speed_a / speed_b, see pca/pair_evaluator.hpp).
template <typename PairEvaluator>
std::optional<Encounter> refine_grid_candidate(const PairEvaluator& eval,
                                               double t_sample, double cell_size,
                                               double t_min, double t_max) {
  const double radius = grid_search_radius(
      cell_size, std::min(eval.speed_a(t_sample), eval.speed_b(t_sample)));
  return refine_candidate_fn([&eval](double t) { return eval.distance(t); },
                             t_sample, radius, t_min, t_max);
}

/// Minimizes the pairwise distance of (sat_a, sat_b) on
/// [center - radius, center + radius], clamped to [t_min, t_max].
///
/// Returns the encounter, or std::nullopt when the minimum lies on the
/// interval boundary and the distance keeps decreasing just beyond it — in
/// that case the true local minimum belongs to a neighbouring interval and
/// will be found from there (the paper's discard rule).
std::optional<Encounter> refine_candidate(const Propagator& propagator,
                                          std::uint32_t sat_a, std::uint32_t sat_b,
                                          double center, double radius,
                                          double t_min, double t_max);

/// Minimizes the pairwise distance on an explicit interval [t_lo, t_hi]
/// (used by the hybrid variant, whose orbital filters construct the
/// interval). The boundary-discard rule is applied the same way.
std::optional<Encounter> refine_on_interval(const Propagator& propagator,
                                            std::uint32_t sat_a, std::uint32_t sat_b,
                                            double t_lo, double t_hi);

/// Collapses encounters of one pair that describe the same physical local
/// minimum: candidates generated at adjacent sample steps refine to nearly
/// identical TCAs. Encounters within `time_tolerance` of each other are
/// merged, keeping the smallest PCA. Returns the list sorted by TCA.
std::vector<Encounter> merge_encounters(std::vector<Encounter> encounters,
                                        double time_tolerance);

}  // namespace scod
