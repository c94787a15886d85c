#include "pca/refine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/constants.hpp"

namespace scod {

double grid_search_radius(double cell_size, double slower_speed_km_s) {
  return 2.0 * cell_size / slower_speed_km_s;
}

SearchInterval grid_search_interval(const StateVector& a, const StateVector& b,
                                    double t_sample, double cell_size, double t_min,
                                    double t_max) {
  const double radius =
      grid_search_radius(cell_size, std::min(a.velocity.norm(), b.velocity.norm()));
  return {std::max(t_sample - radius, t_min), std::min(t_sample + radius, t_max)};
}

namespace {

/// min |r0 + v0 tau| over [tau_lo, tau_hi]: the closest point of the
/// straight line, in closed form.
double line_minimum(const Vec3& r0, const Vec3& v0, double tau_lo, double tau_hi) {
  const double vv = v0.dot(v0);
  const double closest = vv > 0.0 ? std::clamp(-r0.dot(v0) / vv, tau_lo, tau_hi) : 0.0;
  return (r0 + v0 * closest).norm();
}

/// The first-order term of reach_lower_bound: the path strays from the
/// line by at most max_accel tau_max^2 / 2.
double first_order_bound(double line_min, double max_accel, double tau_max) {
  return line_min - 0.5 * max_accel * tau_max * tau_max;
}

/// The tidal term of reach_lower_bound, from the line's minimum
/// `line_min`; -infinity where the chord between the objects may reach the
/// Earth's centre. Out of line, so that the first-order test around it
/// stays small.
[[gnu::noinline]] double tidal_bound(const Vec3& r0, const Vec3& v0, double tau_lo,
                                     double tau_hi, double line_min, double max_accel,
                                     double perigee) {
  const double tau_max = std::max(-tau_lo, tau_hi);
  // M = max |r0 + v0 tau|, at an end of the range (the norm is convex).
  const double max_norm = std::max((r0 + v0 * tau_lo).norm(), (r0 + v0 * tau_hi).norm());
  const double separation = max_norm + 0.5 * max_accel * tau_max * tau_max;
  const double chord_radius2 = perigee * perigee - 0.25 * separation * separation;
  if (!(chord_radius2 > 0.0)) return -std::numeric_limits<double>::infinity();
  const double k = 2.0 * kMuEarth / (chord_radius2 * std::sqrt(chord_radius2));
  // cosh(x) - 1 = 2 sinh(x/2)^2, without the cancellation.
  const double half_sinh = std::sinh(0.5 * std::sqrt(k) * tau_max);
  return line_min - 2.0 * max_norm * half_sinh * half_sinh;
}

}  // namespace

double reach_lower_bound(const Vec3& r0, const Vec3& v0, double max_accel, double perigee,
                         double tau_lo, double tau_hi) {
  const double line_min = line_minimum(r0, v0, tau_lo, tau_hi);
  return std::max(first_order_bound(line_min, max_accel, std::max(-tau_lo, tau_hi)),
                  tidal_bound(r0, v0, tau_lo, tau_hi, line_min, max_accel, perigee));
}

// Every prefilter survivor comes here and most leave after the first-order
// test, which costs little more than a call; flatten keeps the helpers
// inlined (left to itself, GCC called grid_search_interval, ~20 ns more
// per survivor).
[[gnu::flatten]] bool out_of_reach(const StateVector& a, const StateVector& b,
                                   double max_accel, double perigee, double t_sample,
                                   double cell_size, double threshold_km, double t_min,
                                   double t_max) {
  // Every time the search evaluates lies within kEdgeProbeSeconds of its
  // interval (refine_fn's boundary probe).
  const SearchInterval range = grid_search_interval(a, b, t_sample, cell_size, t_min, t_max);
  const Vec3 r0 = b.position - a.position;
  const Vec3 v0 = b.velocity - a.velocity;
  const double tau_lo = range.lo - kEdgeProbeSeconds - t_sample;
  const double tau_hi = range.hi + kEdgeProbeSeconds - t_sample;
  const double line_min = line_minimum(r0, v0, tau_lo, tau_hi);
  // The tidal term costs two norms, two square roots and a sinh, so only
  // the pairs the first-order term keeps pay for it.
  const double limit = threshold_km + kReachBoundMarginKm;
  return first_order_bound(line_min, max_accel, std::max(-tau_lo, tau_hi)) > limit ||
         tidal_bound(r0, v0, tau_lo, tau_hi, line_min, max_accel, perigee) > limit;
}

}  // namespace scod
