#include "pca/refine.hpp"

namespace scod {

double grid_search_radius(double cell_size, double slower_speed_km_s) {
  return 2.0 * cell_size / slower_speed_km_s;
}

std::optional<Encounter> refine_on_interval(const Propagator& propagator,
                                            std::uint32_t sat_a, std::uint32_t sat_b,
                                            double t_lo, double t_hi) {
  return refine_on_interval_fn(
      [&](double t) { return propagator.distance(sat_a, sat_b, t); }, t_lo, t_hi);
}

std::optional<Encounter> refine_candidate(const Propagator& propagator,
                                          std::uint32_t sat_a, std::uint32_t sat_b,
                                          double center, double radius,
                                          double t_min, double t_max) {
  return refine_candidate_fn(
      [&](double t) { return propagator.distance(sat_a, sat_b, t); }, center, radius,
      t_min, t_max);
}

}  // namespace scod
