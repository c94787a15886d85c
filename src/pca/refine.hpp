#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>

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

/// Slack [km] the reach bound keeps below the threshold before it skips a
/// search. It covers the Kepler solver's and the bound's own rounding,
/// which are orders of magnitude smaller.
inline constexpr double kReachBoundMarginKm = 1e-3;

/// Outcome of one candidate's refinement.
struct Refinement {
  bool searched = false;  ///< false when the reach bound skipped the search
  std::optional<Encounter> encounter;
};

/// Radius of the search interval for a grid candidate: "t is the time it
/// takes the slower of both satellites to cross two cells" (Section IV-C).
double grid_search_radius(double cell_size, double slower_speed_km_s);

/// How far beyond an interval edge of `radius` the boundary rule probes.
inline double edge_probe_distance(double radius) {
  return std::max(kEdgeProbeFraction * radius, 4.0 * kRefineTimeTolerance);
}

/// Lower bound [km] on |r(tau)| for tau in [tau_lo, tau_hi], a range that
/// contains 0, when r(0) = r0, r'(0) = v0 and |r''| <= max_accel:
/// r(tau) deviates from r0 + v0 tau by at most max_accel tau^2 / 2, so
/// |r(tau)| >= min |r0 + v0 tau| - max_accel tau_max^2 / 2. The minimum of
/// the straight line has a closed form. An infinite max_accel gives
/// -infinity, a bound that proves nothing.
double reach_lower_bound(const Vec3& r0, const Vec3& v0, double max_accel,
                         double tau_lo, double tau_hi);

/// The Brent search every refinement runs: minimizes `distance(t)`, the
/// pairwise distance objective, on [t_lo, t_hi]. Exposed as a template so
/// the screeners can pass a devirtualized PairStateEvaluator closure
/// instead of paying two virtual dispatches per Brent evaluation.
///
/// Boundary handling (Section IV-C): when the search stops at an interval
/// edge, probe `probe` seconds beyond it. If the distance keeps falling,
/// the local minimum lies outside this interval — discard; the
/// neighbouring interval's search will find it. Otherwise the edge really
/// is the (clamped) minimum. An edge at the simulation span [t_min, t_max]
/// is never discarded, as there is no neighbouring interval beyond it, and
/// the probe does not leave the span. Callers without a span pass
/// -infinity and +infinity, which leaves every edge subject to the rule.
template <typename DistanceFn>
std::optional<Encounter> refine_fn(DistanceFn&& distance, double t_lo, double t_hi,
                                   double probe, double t_min, double t_max) {
  if (!(t_lo < t_hi)) return std::nullopt;

  const MinimizeResult min =
      brent_minimize(distance, t_lo, t_hi, kRefineTimeTolerance, kRefineMaxIterations);
  obs::count(obs::Counter::kRefinements);
  obs::count(obs::Counter::kBrentIterations,
             static_cast<std::uint64_t>(min.iterations));

  const double edge_tol = 2.0 * kRefineTimeTolerance;
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

/// refine_fn on an explicit interval [t_lo, t_hi] with no span to respect
/// (the hybrid variant's filter windows).
template <typename DistanceFn>
std::optional<Encounter> refine_on_interval_fn(DistanceFn&& distance, double t_lo,
                                               double t_hi) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  return refine_fn(distance, t_lo, t_hi, edge_probe_distance(0.5 * (t_hi - t_lo)), -kInf,
                   kInf);
}

/// refine_fn on the grid-style search interval [center - radius,
/// center + radius], clamped to the simulation span [t_min, t_max].
template <typename DistanceFn>
std::optional<Encounter> refine_candidate_fn(DistanceFn&& distance, double center,
                                             double radius, double t_min, double t_max) {
  const double t_lo = std::max(center - radius, t_min);
  const double t_hi = std::min(center + radius, t_max);
  if (!(t_lo < t_hi)) return std::nullopt;
  if (center - radius < t_min || center + radius > t_max) {
    obs::count(obs::Counter::kWindowClamps);
  }
  return refine_fn(distance, t_lo, t_hi, edge_probe_distance(radius), t_min, t_max);
}

/// Grid-style refinement of a candidate flagged at sample time `t_sample`:
/// "t is the time it takes the slower of both satellites to cross two
/// cells, which we can calculate simply by using the velocity vector at
/// that time step" (Section IV-C). `eval` is a pair evaluator
/// (distance / state_a / state_b / max_acceleration, see
/// pca/pair_evaluator.hpp).
///
/// The same two states bound how close the pair can come. Every time the
/// search evaluates lies within one edge probe of the clamped interval;
/// when reach_lower_bound over that range exceeds `threshold_km` (plus
/// kReachBoundMarginKm), no evaluation can fall to the threshold, so
/// whatever the search returned would be rejected by the caller's
/// `pca <= threshold_km` test. The search is skipped and the result is
/// {searched = false}.
template <typename PairEvaluator>
Refinement refine_grid_candidate(const PairEvaluator& eval, double t_sample,
                                 double cell_size, double threshold_km, double t_min,
                                 double t_max) {
  const StateVector a = eval.state_a(t_sample);
  const StateVector b = eval.state_b(t_sample);
  const double radius =
      grid_search_radius(cell_size, std::min(a.velocity.norm(), b.velocity.norm()));

  const double probe = edge_probe_distance(radius);
  const double tau_lo = std::max(t_sample - radius, t_min) - probe - t_sample;
  const double tau_hi = std::min(t_sample + radius, t_max) + probe - t_sample;
  const double reach = reach_lower_bound(b.position - a.position, b.velocity - a.velocity,
                                         eval.max_acceleration(), tau_lo, tau_hi);
  if (reach > threshold_km + kReachBoundMarginKm) {
    obs::count(obs::Counter::kRefinementsSkipped);
    return {};
  }
  return {true, refine_candidate_fn([&eval](double t) { return eval.distance(t); },
                                    t_sample, radius, t_min, t_max)};
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

}  // namespace scod
