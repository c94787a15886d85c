#include "filters/filter_orbit.hpp"

#include <cmath>
#include <stdexcept>

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

void require_fixed_elements(const Propagator& propagator) {
  if (!propagator.fixed_elements()) {
    throw std::invalid_argument(
        "screen: the hybrid and legacy variants need two-body propagation (their "
        "orbital filters read epoch elements)");
  }
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
