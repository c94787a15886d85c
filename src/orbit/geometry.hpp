#pragma once

#include "orbit/elements.hpp"
#include "util/vec3.hpp"

namespace scod {

/// Scalar orbit geometry derived from Keplerian elements. These quantities
/// feed the classical filter chain (apogee/perigee bands), the cell-size
/// and interval logic of the grid variants, and the population generator.

/// Apogee radius r_a = a (1 + e) [km].
double apogee_radius(const KeplerElements& el);

/// Perigee radius r_p = a (1 - e) [km].
double perigee_radius(const KeplerElements& el);

/// Orbital period T = 2 pi sqrt(a^3 / mu) [s].
double orbital_period(const KeplerElements& el);

/// Mean motion n = sqrt(mu / a^3) [rad/s].
double mean_motion(const KeplerElements& el);

/// Semi-latus rectum p = a (1 - e^2) [km].
double semi_latus_rectum(const KeplerElements& el);

/// Radius at a given true anomaly, r = p / (1 + e cos f) [km].
double radius_at_true_anomaly(const KeplerElements& el, double true_anomaly);

/// Orbital speed at a given radius from the vis-viva equation [km/s].
double speed_at_radius(const KeplerElements& el, double radius);

/// Maximum orbital speed (at perigee) [km/s]; bounds how far the object can
/// travel between two samples, which the PCA search-interval logic uses.
double max_speed(const KeplerElements& el);

/// Minimum orbital speed (at apogee) [km/s].
double min_speed(const KeplerElements& el);

/// Unit normal of the orbital plane in ECI coordinates.
Vec3 normal_of(const KeplerElements& el);

/// Angle between the orbital planes of two orbits, in [0, pi/2]; two orbits
/// are treated as coplanar when this angle (or its complement through
/// opposite normals) is below a tolerance.
double plane_angle(const KeplerElements& a, const KeplerElements& b);

/// The same angle from the two unit plane normals.
double plane_angle(const Vec3& normal_a, const Vec3& normal_b);

/// True whether the elements describe a bound, elliptic, physically valid
/// orbit with perigee above the Earth's surface.
bool is_valid_orbit(const KeplerElements& el);

}  // namespace scod
