#include "orbit/geometry.hpp"

#include <algorithm>
#include <cmath>

#include "orbit/frames.hpp"
#include "util/constants.hpp"

namespace scod {

double apogee_radius(const KeplerElements& el) {
  return el.semi_major_axis * (1.0 + el.eccentricity);
}

double perigee_radius(const KeplerElements& el) {
  return el.semi_major_axis * (1.0 - el.eccentricity);
}

double orbital_period(const KeplerElements& el) {
  const double a = el.semi_major_axis;
  return kTwoPi * std::sqrt(a * a * a / kMuEarth);
}

double mean_motion(const KeplerElements& el) {
  const double a = el.semi_major_axis;
  return std::sqrt(kMuEarth / (a * a * a));
}

double semi_latus_rectum(const KeplerElements& el) {
  return el.semi_major_axis * (1.0 - el.eccentricity * el.eccentricity);
}

double radius_at_true_anomaly(const KeplerElements& el, double true_anomaly) {
  return semi_latus_rectum(el) / (1.0 + el.eccentricity * std::cos(true_anomaly));
}

double speed_at_radius(const KeplerElements& el, double radius) {
  return std::sqrt(kMuEarth * (2.0 / radius - 1.0 / el.semi_major_axis));
}

double max_speed(const KeplerElements& el) {
  return speed_at_radius(el, perigee_radius(el));
}

double min_speed(const KeplerElements& el) {
  return speed_at_radius(el, apogee_radius(el));
}

Vec3 normal_of(const KeplerElements& el) {
  return orbit_normal(el.inclination, el.raan);
}

double plane_angle(const KeplerElements& a, const KeplerElements& b) {
  return plane_angle(normal_of(a), normal_of(b));
}

double plane_angle(const Vec3& normal_a, const Vec3& normal_b) {
  const double c = std::clamp(normal_a.dot(normal_b), -1.0, 1.0);
  // Opposite normals describe the same geometric plane, so fold into
  // [0, pi/2].
  return std::acos(std::abs(c));
}

bool is_valid_orbit(const KeplerElements& el) {
  return el.semi_major_axis > 0.0 && el.eccentricity >= 0.0 && el.eccentricity < 1.0 &&
         perigee_radius(el) > kEarthRadius;
}

}  // namespace scod
