#pragma once

#include <vector>

#include "orbit/elements.hpp"
#include "orbit/frames.hpp"
#include "parallel/thread_pool.hpp"
#include "propagation/propagator.hpp"
#include "util/vec3.hpp"

namespace scod {

/// One object's orbit as the classical filters read it: its epoch
/// elements plus the geometry every pair test of the object needs, taken
/// once per screen instead of once per pair. Each field is the value the
/// elements-based formula returns (perigee_radius, apogee_radius,
/// normal_of, perifocal_to_eci, semi_latus_rectum), so a filter reading it
/// decides bit for bit as one recomputing them from the elements.
struct FilterOrbit {
  FilterOrbit() = default;
  explicit FilterOrbit(const KeplerElements& el);

  KeplerElements elements;
  double perigee = 0.0;  ///< perigee radius [km]
  double apogee = 0.0;   ///< apogee radius [km]
  Vec3 normal;           ///< unit normal of the orbital plane
  Mat3 rotation;         ///< perifocal -> ECI
  double p = 0.0;        ///< semi-latus rectum [km]
  double h = 0.0;        ///< specific angular momentum sqrt(mu p) [km^2/s]
};

/// Throws std::invalid_argument unless `propagator` has fixed_elements().
/// The filters read only the epoch elements, so under a propagator whose
/// orbits drift (j2, tle, ephemeris) they reject pairs that do meet.
void require_fixed_elements(const Propagator& propagator);

/// The FilterOrbit of every object of `propagator` from its epoch elements
/// (Propagator::elements), built on `pool`.
std::vector<FilterOrbit> build_filter_orbits(const Propagator& propagator,
                                             ThreadPool& pool);

}  // namespace scod
