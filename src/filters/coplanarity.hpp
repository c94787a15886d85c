#pragma once

#include "filters/filter_orbit.hpp"

namespace scod {

/// Angular tolerance below which two orbital planes are treated as
/// coplanar. The node-crossing time filter degenerates for small plane
/// angles (the intersection line is ill-conditioned and encounter minima
/// become broad), so nearly-coplanar pairs are routed to the sampling-based
/// search instead — the same split the paper's hybrid variant makes in
/// Section IV-C.
inline constexpr double kCoplanarTolerance = 0.02;  // rad, ~1.15 deg

/// True when the planes of the two orbits are within kCoplanarTolerance of
/// each other (normals parallel or anti-parallel).
bool are_coplanar(const FilterOrbit& a, const FilterOrbit& b);

}  // namespace scod
