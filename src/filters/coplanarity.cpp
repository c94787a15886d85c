#include "filters/coplanarity.hpp"

#include "orbit/geometry.hpp"

namespace scod {

bool are_coplanar(const FilterOrbit& a, const FilterOrbit& b) {
  return plane_angle(a.normal, b.normal) < kCoplanarTolerance;
}

}  // namespace scod
