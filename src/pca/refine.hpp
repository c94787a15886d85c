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

/// Slack [km] the reach test keeps above the threshold before it rejects a
/// candidate. It covers the bound's own rounding and the error of states
/// taken from warm-started anomalies (TwoBodyPropagator::positions_warm,
/// within 1e-9 km of state()), which are orders of magnitude smaller.
inline constexpr double kReachBoundMarginKm = 1e-3;

/// Radius of the search interval for a grid candidate: "t is the time it
/// takes the slower of both satellites to cross two cells" (Section IV-C).
double grid_search_radius(double cell_size, double slower_speed_km_s);

/// A search interval [lo, hi] [s].
struct SearchInterval {
  double lo = 0.0;
  double hi = 0.0;
};

/// The search interval of a grid candidate flagged at sample time
/// `t_sample`, where the pair's states are `a` and `b`: [t_sample - t,
/// t_sample + t] for the grid_search_radius t of the slower satellite,
/// clamped to the simulation span [t_min, t_max].
SearchInterval grid_search_interval(const StateVector& a, const StateVector& b,
                                    double t_sample, double cell_size, double t_min,
                                    double t_max);

/// Lower bound [km] on |r(tau)| for tau in [tau_lo, tau_hi], a range that
/// contains 0, where r is the separation r_b - r_a of two objects with
/// r(0) = r0, r'(0) = v0 and |r''| <= max_accel. The larger of two bounds,
/// both measured from the straight line L(tau) = r0 + v0 tau, whose
/// minimum over the range has a closed form, and M = max |L| at the
/// range's ends:
///  - first order: r deviates from L by at most max_accel tau_max^2 / 2;
///  - tidal, only when both objects move under two-body gravity and
///    `perigee` is the lower of their perigee radii (0 otherwise): their
///    separation stays below S = M + max_accel tau_max^2 / 2, so the chord
///    between them stays above r_m = sqrt(perigee^2 - S^2 / 4), where the
///    gravity gradient 2 mu / r_m^3 = k bounds |r''| by k |r|, and r
///    deviates from L by at most M (cosh(sqrt(k) tau_max) - 1) (Gronwall,
///    against u'' = k (M + u)). Where r_m^2 <= 0 only the first order holds.
/// An infinite max_accel gives -infinity, a bound that proves nothing.
double reach_lower_bound(const Vec3& r0, const Vec3& v0, double max_accel, double perigee,
                         double tau_lo, double tau_hi);

/// The reach test of a grid candidate, run where the candidate is emitted
/// (the grid front end's PairTest): true when the pair, in states `a` and
/// `b` at `t_sample`, with relative acceleration at most `max_accel` and
/// the lower perigee radius `perigee` (0 when the pair does not move under
/// two-body gravity), stays farther than `threshold_km` +
/// kReachBoundMarginKm apart at every time refine_grid_candidate's search
/// can evaluate, its grid_search_interval widened by kEdgeProbeSeconds.
/// Such a candidate's search could only return a PCA above the threshold,
/// which refinement rejects, so it need not be emitted. The bound is
/// reach_lower_bound's, whose tidal term is evaluated only when the first
/// order keeps the pair. An infinite `max_accel` rejects nothing.
bool out_of_reach(const StateVector& a, const StateVector& b, double max_accel,
                  double perigee, double t_sample, double cell_size, double threshold_km,
                  double t_min, double t_max);

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
/// that time step" (Section IV-C). The search runs on
/// grid_search_interval, [t_sample - t, t_sample + t] clamped to the
/// simulation span [t_min, t_max]. `eval` is a pair evaluator (distance /
/// state_a / state_b, see pca/pair_evaluator.hpp). The candidates that
/// reach it have passed out_of_reach in the grid front end. Returns the
/// encounter only when its PCA is within the threshold.
template <typename PairEvaluator>
std::optional<Encounter> refine_grid_candidate(const PairEvaluator& eval, double t_sample,
                                               double cell_size, double threshold_km,
                                               double t_min, double t_max) {
  const SearchInterval range = grid_search_interval(
      eval.state_a(t_sample), eval.state_b(t_sample), t_sample, cell_size, t_min, t_max);
  if (range.lo == t_min || range.hi == t_max) {
    obs::count(obs::Counter::kWindowClamps);
  }
  std::optional<Encounter> found = refine_fn([&eval](double t) { return eval.distance(t); },
                                             range.lo, range.hi, t_min, t_max);
  if (found.has_value() && !(found->pca <= threshold_km)) found.reset();
  return found;
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
