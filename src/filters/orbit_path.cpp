#include "filters/orbit_path.hpp"

#include <cmath>
#include <limits>

#include "filters/filter_chain.hpp"
#include "orbit/geometry.hpp"
#include "pca/brent.hpp"
#include "util/constants.hpp"

namespace scod {

OrbitCurve::OrbitCurve(const KeplerElements& el)
    : p_(semi_latus_rectum(el)),
      e_(el.eccentricity),
      rotation_(perifocal_to_eci(el.inclination, el.raan, el.arg_perigee)) {}

Vec3 OrbitCurve::position(double true_anomaly) const {
  const double cf = std::cos(true_anomaly);
  const double sf = std::sin(true_anomaly);
  const double r = p_ / (1.0 + e_ * cf);
  return rotation_ * Vec3{r * cf, r * sf, 0.0};
}

double min_orbit_distance(const KeplerElements& a, const KeplerElements& b,
                          int coarse_samples) {
  const OrbitCurve curve_a(a);
  const OrbitCurve curve_b(b);

  const double step = kTwoPi / static_cast<double>(coarse_samples);

  // Coarse scan over the (f_a, f_b) torus.
  double best_fa = 0.0, best_fb = 0.0;
  double best_d2 = std::numeric_limits<double>::infinity();
  for (int i = 0; i < coarse_samples; ++i) {
    const double fa = static_cast<double>(i) * step;
    const Vec3 pa = curve_a.position(fa);
    for (int j = 0; j < coarse_samples; ++j) {
      const double fb = static_cast<double>(j) * step;
      const double d2 = (pa - curve_b.position(fb)).norm2();
      if (d2 < best_d2) {
        best_d2 = d2;
        best_fa = fa;
        best_fb = fb;
      }
    }
  }

  // Coordinate-descent polish: alternately minimize over each anomaly with
  // Brent on a window of +- one coarse step around the incumbent.
  double fa = best_fa, fb = best_fb;
  for (int round = 0; round < 4; ++round) {
    const auto over_fa = [&](double f) {
      return (curve_a.position(f) - curve_b.position(fb)).norm2();
    };
    fa = brent_minimize(over_fa, fa - step, fa + step, 1e-10).x;
    const auto over_fb = [&](double f) {
      return (curve_a.position(fa) - curve_b.position(f)).norm2();
    };
    fb = brent_minimize(over_fb, fb - step, fb + step, 1e-10).x;
  }

  return (curve_a.position(fa) - curve_b.position(fb)).norm();
}

bool orbit_path_overlap(const KeplerElements& a, const KeplerElements& b,
                        double threshold_km) {
  return min_orbit_distance(a, b) <= threshold_km + kFilterPadKm;
}

}  // namespace scod
