#include "filters/apogee_perigee.hpp"

#include <algorithm>

namespace scod {

double radial_band_gap(const FilterOrbit& a, const FilterOrbit& b) {
  const double highest_perigee = std::max(a.perigee, b.perigee);
  const double lowest_apogee = std::min(a.apogee, b.apogee);
  return highest_perigee - lowest_apogee;
}

bool apogee_perigee_overlap(const FilterOrbit& a, const FilterOrbit& b,
                            double threshold_km) {
  return radial_band_gap(a, b) <= threshold_km;
}

}  // namespace scod
