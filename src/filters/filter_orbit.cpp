#include "filters/filter_orbit.hpp"

#include <cmath>

#include "orbit/geometry.hpp"
#include "util/constants.hpp"

namespace scod {

FilterOrbit::FilterOrbit(const KeplerElements& el)
    : elements(el),
      perigee(perigee_radius(el)),
      apogee(apogee_radius(el)),
      normal(normal_of(el)),
      rotation(perifocal_to_eci(el.inclination, el.raan, el.arg_perigee)),
      p(semi_latus_rectum(el)),
      h(std::sqrt(kMuEarth * p)) {}

double FilterOrbit::radius_at(double true_anomaly) const {
  return p / (1.0 + elements.eccentricity * std::cos(true_anomaly));
}

std::vector<FilterOrbit> build_filter_orbits(const Propagator& propagator,
                                             ThreadPool& pool) {
  std::vector<FilterOrbit> orbits(propagator.size());
  pool.parallel_for(orbits.size(), [&](std::size_t i) {
    orbits[i] = FilterOrbit(propagator.elements(i));
  });
  return orbits;
}

}  // namespace scod
