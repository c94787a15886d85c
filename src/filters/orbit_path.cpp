#include "filters/orbit_path.hpp"

#include <cmath>
#include <limits>
#include <vector>

#include "filters/filter_chain.hpp"
#include "pca/brent.hpp"
#include "util/constants.hpp"

namespace scod {

double min_orbit_distance(const FilterOrbit& a, const FilterOrbit& b,
                          int coarse_samples) {
  const double step = kTwoPi / static_cast<double>(coarse_samples);

  // Coarse scan over the (f_a, f_b) torus, from each curve's points.
  std::vector<Vec3> points_b(static_cast<std::size_t>(coarse_samples));
  for (int j = 0; j < coarse_samples; ++j) {
    points_b[static_cast<std::size_t>(j)] = b.position(static_cast<double>(j) * step);
  }
  double best_fa = 0.0, best_fb = 0.0;
  double best_d2 = std::numeric_limits<double>::infinity();
  for (int i = 0; i < coarse_samples; ++i) {
    const double fa = static_cast<double>(i) * step;
    const Vec3 pa = a.position(fa);
    for (int j = 0; j < coarse_samples; ++j) {
      const double d2 = (pa - points_b[static_cast<std::size_t>(j)]).norm2();
      if (d2 < best_d2) {
        best_d2 = d2;
        best_fa = fa;
        best_fb = static_cast<double>(j) * step;
      }
    }
  }

  // Coordinate-descent polish: alternately minimize over each anomaly with
  // Brent on a window of +- one coarse step around the incumbent, the
  // other curve's point held fixed.
  double fa = best_fa, fb = best_fb;
  for (int round = 0; round < 4; ++round) {
    const Vec3 fixed_b = b.position(fb);
    const auto over_fa = [&](double f) { return (a.position(f) - fixed_b).norm2(); };
    fa = brent_minimize(over_fa, fa - step, fa + step, 1e-10).x;
    const Vec3 fixed_a = a.position(fa);
    const auto over_fb = [&](double f) { return (fixed_a - b.position(f)).norm2(); };
    fb = brent_minimize(over_fb, fb - step, fb + step, 1e-10).x;
  }

  return (a.position(fa) - b.position(fb)).norm();
}

bool orbit_path_overlap(const FilterOrbit& a, const FilterOrbit& b,
                        double threshold_km) {
  return min_orbit_distance(a, b) <= threshold_km + kFilterPadKm;
}

}  // namespace scod
