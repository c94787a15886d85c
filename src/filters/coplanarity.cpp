#include "filters/coplanarity.hpp"

#include "orbit/geometry.hpp"

namespace scod {

bool are_coplanar(const KeplerElements& a, const KeplerElements& b) {
  return plane_angle(a, b) < kCoplanarTolerance;
}

}  // namespace scod
