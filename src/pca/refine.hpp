#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>

#include "obs/telemetry.hpp"
#include "orbit/state.hpp"
#include "pca/brent.hpp"

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
/// How far beyond an interval edge [s] the boundary rule probes when the
/// minimum lands on it: a few Brent tolerances, so the probe tests the
/// distance's slope at the edge rather than its value some way off, where
/// a minimum just outside the edge could already be behind it.
inline constexpr double kEdgeProbeSeconds = 4.0 * kRefineTimeTolerance;

/// Slack [km] the reach bound keeps below the threshold before it skips a
/// search. It covers the Kepler solver's and the bound's own rounding,
/// which are orders of magnitude smaller.
inline constexpr double kReachBoundMarginKm = 1e-3;

/// Outcome of one candidate's refinement.
struct Refinement {
  bool searched = false;  ///< false when the reach bound skipped the search
  /// The encounter found, set only when its PCA is within the threshold.
  std::optional<Encounter> encounter;
};

/// Radius of the search interval for a grid candidate: "t is the time it
/// takes the slower of both satellites to cross two cells" (Section IV-C).
double grid_search_radius(double cell_size, double slower_speed_km_s);

/// Lower bound [km] on |r(tau)| for tau in [tau_lo, tau_hi], a range that
/// contains 0, when r(0) = r0, r'(0) = v0 and |r''| <= max_accel:
/// r(tau) deviates from r0 + v0 tau by at most max_accel tau^2 / 2, so
/// |r(tau)| >= min |r0 + v0 tau| - max_accel tau_max^2 / 2. The minimum of
/// the straight line has a closed form. An infinite max_accel gives
/// -infinity, a bound that proves nothing.
double reach_lower_bound(const Vec3& r0, const Vec3& v0, double max_accel,
                         double tau_lo, double tau_hi);

/// One Brent search for a refinement: minimizes `distance` on [lo, hi] with
/// the refinement settings and counts it as one refinement. Every Brent
/// search of a screen goes through here, legacy's dense scans included, so
/// "refinements >= raw conjunctions" holds for every variant.
template <typename DistanceFn>
MinimizeResult counted_brent(const DistanceFn& distance, double lo, double hi) {
  const MinimizeResult min =
      brent_minimize(distance, lo, hi, kRefineTimeTolerance, kRefineMaxIterations);
  obs::count(obs::Counter::kRefinements);
  obs::count(obs::Counter::kBrentIterations, static_cast<std::uint64_t>(min.iterations));
  return min;
}

/// The refinement every variant runs: minimizes `distance(t)`, the
/// pairwise distance objective, on [t_lo, t_hi]. A template, so the
/// screeners can pass a devirtualized PairStateEvaluator closure instead of
/// paying two virtual dispatches per Brent evaluation.
///
/// Boundary handling (Section IV-C): when the search stops at an interval
/// edge, probe kEdgeProbeSeconds beyond it. If the distance keeps falling,
/// the local minimum lies outside this interval — discard; the
/// neighbouring interval's search will find it. Otherwise the edge really
/// is the (clamped) minimum. An edge at the simulation span [t_min, t_max]
/// is never discarded, as there is no neighbouring interval beyond it, and
/// the probe does not leave the span. Callers without a span pass
/// -infinity and +infinity, which leaves every edge subject to the rule.
template <typename DistanceFn>
std::optional<Encounter> refine_fn(const DistanceFn& distance, double t_lo, double t_hi,
                                   double t_min, double t_max) {
  if (!(t_lo < t_hi)) return std::nullopt;

  const MinimizeResult min = counted_brent(distance, t_lo, t_hi);

  const double edge_tol = 2.0 * kRefineTimeTolerance;
  if (min.x - t_lo <= edge_tol && t_lo > t_min) {
    if (distance(std::max(t_lo - kEdgeProbeSeconds, t_min)) < min.value) {
      obs::count(obs::Counter::kEdgeDiscards);
      return std::nullopt;
    }
  } else if (t_hi - min.x <= edge_tol && t_hi < t_max) {
    if (distance(std::min(t_hi + kEdgeProbeSeconds, t_max)) < min.value) {
      obs::count(obs::Counter::kEdgeDiscards);
      return std::nullopt;
    }
  }

  return Encounter{min.x, min.value};
}

/// Grid-style refinement of a candidate flagged at sample time `t_sample`:
/// "t is the time it takes the slower of both satellites to cross two
/// cells, which we can calculate simply by using the velocity vector at
/// that time step" (Section IV-C). The search runs on [t_sample - t,
/// t_sample + t], clamped to the simulation span [t_min, t_max]. `eval` is
/// a pair evaluator (distance / state_a / state_b / max_acceleration, see
/// pca/pair_evaluator.hpp).
///
/// The same two states bound how close the pair can come. Every time the
/// search evaluates lies within kEdgeProbeSeconds of the clamped interval;
/// when reach_lower_bound over that range exceeds `threshold_km` (plus
/// kReachBoundMarginKm), no evaluation can fall to the threshold, so
/// whatever the search returned would be rejected by the `pca <=
/// threshold_km` acceptance. The search is skipped and the result is
/// {searched = false}.
template <typename PairEvaluator>
Refinement refine_grid_candidate(const PairEvaluator& eval, double t_sample,
                                 double cell_size, double threshold_km, double t_min,
                                 double t_max) {
  const StateVector a = eval.state_a(t_sample);
  const StateVector b = eval.state_b(t_sample);
  const double radius =
      grid_search_radius(cell_size, std::min(a.velocity.norm(), b.velocity.norm()));
  const double t_lo = std::max(t_sample - radius, t_min);
  const double t_hi = std::min(t_sample + radius, t_max);

  const double reach = reach_lower_bound(
      b.position - a.position, b.velocity - a.velocity, eval.max_acceleration(),
      t_lo - kEdgeProbeSeconds - t_sample, t_hi + kEdgeProbeSeconds - t_sample);
  if (reach > threshold_km + kReachBoundMarginKm) {
    obs::count(obs::Counter::kRefinementsSkipped);
    return {};
  }
  if (t_sample - radius < t_min || t_sample + radius > t_max) {
    obs::count(obs::Counter::kWindowClamps);
  }
  std::optional<Encounter> found =
      refine_fn([&eval](double t) { return eval.distance(t); }, t_lo, t_hi, t_min, t_max);
  if (found.has_value() && !(found->pca <= threshold_km)) found.reset();
  return {true, found};
}

/// Refinement of a filter window [lo, hi] (hybrid and legacy). The window
/// is widened by a quarter of its length plus 5 s, so that a minimum
/// grazing its edge lies inside the search interval rather than on its
/// edge. The search has no span to respect, so every edge is subject to
/// the boundary rule. Returns the encounter only when it lies in the span
/// [t_min, t_max] with a PCA of at most `threshold_km`.
template <typename PairEvaluator>
std::optional<Encounter> refine_window(const PairEvaluator& eval, double lo, double hi,
                                       double threshold_km, double t_min, double t_max) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double ext = 0.25 * (hi - lo) + 5.0;
  const std::optional<Encounter> found = refine_fn(
      [&eval](double t) { return eval.distance(t); }, lo - ext, hi + ext, -kInf, kInf);
  if (found.has_value() && found->pca <= threshold_km && found->tca >= t_min &&
      found->tca <= t_max) {
    return found;
  }
  return std::nullopt;
}

}  // namespace scod
