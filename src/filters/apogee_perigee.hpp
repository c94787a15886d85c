#pragma once

#include "filters/filter_orbit.hpp"

namespace scod {

/// Apogee/perigee filter (Hoots, Crawford & Roehrich 1984): two orbits can
/// only come within `threshold` of each other if their radial bands
/// [perigee, apogee], padded by the threshold, overlap. "The apogee/perigee
/// filter takes the farthest (apogee) and nearest point (perigee) of an
/// orbit and compares the range between with the respective range of all
/// other objects, excluding those as potential collision pairs that do not
/// overlap."
///
/// Returns true when the pair SURVIVES the filter (bands overlap), i.e.
/// max(perigee_a, perigee_b) - min(apogee_a, apogee_b) <= threshold.
bool apogee_perigee_overlap(const FilterOrbit& a, const FilterOrbit& b,
                            double threshold_km);

/// The radial gap the filter compares against the threshold; negative when
/// the bands already overlap without padding. Exposed for tests and for
/// diagnostics in the filter chain statistics.
double radial_band_gap(const FilterOrbit& a, const FilterOrbit& b);

}  // namespace scod
