#include "pca/refine.hpp"

#include <algorithm>

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

double reach_lower_bound(const Vec3& r0, const Vec3& v0, double max_accel,
                         double tau_lo, double tau_hi) {
  const double vv = v0.dot(v0);
  const double closest = vv > 0.0 ? std::clamp(-r0.dot(v0) / vv, tau_lo, tau_hi) : 0.0;
  const double tau_max = std::max(-tau_lo, tau_hi);
  return (r0 + v0 * closest).norm() - 0.5 * max_accel * tau_max * tau_max;
}

bool out_of_reach(const StateVector& a, const StateVector& b, double max_accel,
                  double t_sample, double cell_size, double threshold_km, double t_min,
                  double t_max) {
  // Every time the search evaluates lies within kEdgeProbeSeconds of its
  // interval (refine_fn's boundary probe).
  const SearchInterval range = grid_search_interval(a, b, t_sample, cell_size, t_min, t_max);
  const double reach = reach_lower_bound(
      b.position - a.position, b.velocity - a.velocity, max_accel,
      range.lo - kEdgeProbeSeconds - t_sample, range.hi + kEdgeProbeSeconds - t_sample);
  return reach > threshold_km + kReachBoundMarginKm;
}

}  // namespace scod
