#pragma once

#include "filters/filter_orbit.hpp"

namespace scod {

/// Minimum distance between the two orbit curves (a time-free MOID-style
/// bound): the orbit path filter "further reduces the number of object
/// pairs by calculating the minimal distance between the two orbits. The
/// pairs are excluded if this distance is larger than a predefined
/// threshold" (Hoots et al. 1984).
///
/// Found by a coarse anomaly-grid scan (`coarse_samples` per orbit, each
/// curve's points taken once) followed by coordinate-descent Brent
/// refinement, whose fixed-anomaly point is taken once per sweep. The
/// result is an upper bound on the true MOID that converges quickly with
/// the grid resolution; filters use it with a pad, never as an exact
/// quantity.
double min_orbit_distance(const FilterOrbit& a, const FilterOrbit& b,
                          int coarse_samples = 24);

/// Returns true when the pair SURVIVES the orbit path filter, i.e. the
/// minimum orbit-to-orbit distance is within threshold + kFilterPadKm.
bool orbit_path_overlap(const FilterOrbit& a, const FilterOrbit& b,
                        double threshold_km);

}  // namespace scod
