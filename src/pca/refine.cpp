#include "pca/refine.hpp"

#include <algorithm>

namespace scod {

double grid_search_radius(double cell_size, double slower_speed_km_s) {
  return 2.0 * cell_size / slower_speed_km_s;
}

double reach_lower_bound(const Vec3& r0, const Vec3& v0, double max_accel,
                         double tau_lo, double tau_hi) {
  const double vv = v0.dot(v0);
  const double closest = vv > 0.0 ? std::clamp(-r0.dot(v0) / vv, tau_lo, tau_hi) : 0.0;
  const double tau_max = std::max(-tau_lo, tau_hi);
  return (r0 + v0 * closest).norm() - 0.5 * max_accel * tau_max * tau_max;
}

}  // namespace scod
