#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "orbit/anomaly.hpp"
#include "orbit/elements.hpp"
#include "orbit/frames.hpp"
#include "orbit/geometry.hpp"
#include "orbit/state.hpp"
#include "util/constants.hpp"

namespace scod {
namespace {

KeplerElements leo_orbit() {
  return {7000.0, 0.01, 0.9, 1.2, 0.4, 2.1};
}

TEST(Anomaly, WrapTwoPi) {
  EXPECT_NEAR(wrap_two_pi(0.5), 0.5, 1e-15);
  EXPECT_NEAR(wrap_two_pi(kTwoPi + 0.5), 0.5, 1e-12);
  EXPECT_NEAR(wrap_two_pi(-0.5), kTwoPi - 0.5, 1e-12);
  EXPECT_NEAR(wrap_two_pi(5.0 * kTwoPi), 0.0, 1e-9);
}

TEST(Anomaly, WrapPi) {
  EXPECT_NEAR(wrap_pi(0.5), 0.5, 1e-15);
  EXPECT_NEAR(wrap_pi(kPi + 0.1), -kPi + 0.1, 1e-12);
  EXPECT_NEAR(wrap_pi(-kPi + 0.1), -kPi + 0.1, 1e-12);
}

class AnomalyRoundTrip : public testing::TestWithParam<double> {};

TEST_P(AnomalyRoundTrip, EccentricTrueInverse) {
  const double e = GetParam();
  for (int k = 0; k < 48; ++k) {
    const double big_e = kTwoPi * k / 48.0;
    const double f = eccentric_to_true(big_e, e);
    EXPECT_NEAR(true_to_eccentric(f, e), wrap_two_pi(big_e), 1e-10)
        << "E=" << big_e << " e=" << e;
  }
}

TEST_P(AnomalyRoundTrip, MeanFollowsKeplersEquation) {
  const double e = GetParam();
  for (int k = 0; k < 48; ++k) {
    const double big_e = kTwoPi * k / 48.0;
    const double m = eccentric_to_mean(big_e, e);
    EXPECT_NEAR(m, wrap_two_pi(big_e - e * std::sin(big_e)), 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Eccentricities, AnomalyRoundTrip,
                         testing::Values(0.0, 0.001, 0.1, 0.5, 0.9, 0.99));

TEST(Anomaly, CircularOrbitAnomaliesCoincide) {
  for (double f = 0.0; f < kTwoPi; f += 0.37) {
    EXPECT_NEAR(true_to_mean(f, 0.0), wrap_two_pi(f), 1e-12);
  }
}

TEST(Frames, RotationIsOrthonormal) {
  const Mat3 r = perifocal_to_eci(0.7, 1.1, 2.3);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      double dot = 0.0;
      for (int k = 0; k < 3; ++k) dot += r.m[k][i] * r.m[k][j];
      EXPECT_NEAR(dot, i == j ? 1.0 : 0.0, 1e-12);
    }
  }
}

TEST(Frames, IdentityForZeroAngles) {
  const Mat3 r = perifocal_to_eci(0.0, 0.0, 0.0);
  const Vec3 v{1.0, 2.0, 3.0};
  const Vec3 rv = r * v;
  EXPECT_NEAR(rv.x, v.x, 1e-14);
  EXPECT_NEAR(rv.y, v.y, 1e-14);
  EXPECT_NEAR(rv.z, v.z, 1e-14);
}

TEST(Frames, TransposeIsInverse) {
  const Mat3 r = perifocal_to_eci(1.4, 0.3, 5.1);
  const Vec3 v{4.0, -2.0, 7.0};
  const Vec3 back = r.transposed() * (r * v);
  EXPECT_NEAR(back.x, v.x, 1e-12);
  EXPECT_NEAR(back.y, v.y, 1e-12);
  EXPECT_NEAR(back.z, v.z, 1e-12);
}

TEST(Frames, OrbitNormalMatchesRotationZColumn) {
  const double inc = 1.1, raan = 2.7;
  const Vec3 n = orbit_normal(inc, raan);
  const Mat3 r = perifocal_to_eci(inc, raan, 0.6);
  EXPECT_NEAR(n.x, r.m[0][2], 1e-12);
  EXPECT_NEAR(n.y, r.m[1][2], 1e-12);
  EXPECT_NEAR(n.z, r.m[2][2], 1e-12);
  EXPECT_NEAR(n.norm(), 1.0, 1e-12);
}

TEST(Geometry, ApsidesAndLatus) {
  const KeplerElements el = leo_orbit();
  EXPECT_DOUBLE_EQ(apogee_radius(el), 7070.0);
  EXPECT_DOUBLE_EQ(perigee_radius(el), 6930.0);
  EXPECT_DOUBLE_EQ(semi_latus_rectum(el), 7000.0 * (1.0 - 0.0001));
  EXPECT_DOUBLE_EQ(radius_at_true_anomaly(el, 0.0), perigee_radius(el));
  EXPECT_NEAR(radius_at_true_anomaly(el, kPi), apogee_radius(el), 1e-9);
}

TEST(Geometry, GeostationaryPeriodIsOneDay) {
  KeplerElements geo{kGeoSemiMajorAxis, 0.0, 0.0, 0.0, 0.0, 0.0};
  // Sidereal day ~ 86164 s.
  EXPECT_NEAR(orbital_period(geo), 86164.0, 20.0);
  EXPECT_NEAR(mean_motion(geo) * orbital_period(geo), kTwoPi, 1e-12);
}

TEST(Geometry, VisVivaSpeeds) {
  const KeplerElements el = leo_orbit();
  EXPECT_GT(max_speed(el), min_speed(el));
  // Circular-orbit speed at 7000 km is ~7.55 km/s.
  KeplerElements circ{7000.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  EXPECT_NEAR(speed_at_radius(circ, 7000.0), std::sqrt(kMuEarth / 7000.0), 1e-12);
  EXPECT_NEAR(max_speed(circ), min_speed(circ), 1e-12);
}

TEST(Geometry, PlaneAngle) {
  KeplerElements a = leo_orbit();
  KeplerElements b = a;
  EXPECT_NEAR(plane_angle(a, b), 0.0, 1e-12);
  b.inclination += 0.3;
  EXPECT_NEAR(plane_angle(a, b), 0.3, 1e-12);
  // Opposite normals describe the same plane.
  KeplerElements c = a;
  c.inclination = kPi - a.inclination;
  c.raan = wrap_two_pi(a.raan + kPi);
  EXPECT_NEAR(plane_angle(a, c), 0.0, 1e-9);
}

TEST(Geometry, ValidityChecks) {
  EXPECT_TRUE(is_valid_orbit(leo_orbit()));
  EXPECT_FALSE(is_valid_orbit({-7000.0, 0.0, 0, 0, 0, 0}));   // negative a
  EXPECT_FALSE(is_valid_orbit({7000.0, 1.1, 0, 0, 0, 0}));    // hyperbolic
  EXPECT_FALSE(is_valid_orbit({6200.0, 0.0, 0, 0, 0, 0}));    // below surface
  EXPECT_FALSE(is_valid_orbit({20000.0, 0.7, 0, 0, 0, 0}));   // perigee dips in
}

TEST(State, PositionOnConicAtKeyAnomalies) {
  const KeplerElements el{8000.0, 0.2, 0.0, 0.0, 0.0, 0.0};
  const StateVector at_perigee = state_at_true_anomaly(el, 0.0);
  EXPECT_NEAR(at_perigee.position.norm(), perigee_radius(el), 1e-9);
  const StateVector at_apogee = state_at_true_anomaly(el, kPi);
  EXPECT_NEAR(at_apogee.position.norm(), apogee_radius(el), 1e-9);
  // Velocity is perpendicular to position at the apsides.
  EXPECT_NEAR(at_perigee.position.dot(at_perigee.velocity), 0.0, 1e-6);
  EXPECT_NEAR(at_apogee.position.dot(at_apogee.velocity), 0.0, 1e-6);
}

TEST(State, EnergyAndAngularMomentumMatchElements) {
  const KeplerElements el = leo_orbit();
  for (double f = 0.1; f < kTwoPi; f += 0.9) {
    const StateVector s = state_at_true_anomaly(el, f);
    const double r = s.position.norm();
    const double v2 = s.velocity.norm2();
    const double energy = v2 / 2.0 - kMuEarth / r;
    EXPECT_NEAR(energy, -kMuEarth / (2.0 * el.semi_major_axis), 1e-8);
    const double h = s.position.cross(s.velocity).norm();
    EXPECT_NEAR(h, std::sqrt(kMuEarth * semi_latus_rectum(el)), 1e-8);
  }
}

class StateRoundTrip : public testing::TestWithParam<KeplerElements> {};

TEST_P(StateRoundTrip, ElementsSurviveConversion) {
  const KeplerElements el = GetParam();
  for (double f : {0.3, 1.7, 3.0, 4.9}) {
    // The element set is defined at the instant of the state, so compare
    // against elements whose mean anomaly equals that of the sample point.
    const StateVector s = state_at_true_anomaly(el, f);
    const KeplerElements back = elements_from_state(s);
    EXPECT_NEAR(back.semi_major_axis, el.semi_major_axis, 1e-6);
    EXPECT_NEAR(back.eccentricity, el.eccentricity, 1e-9);
    EXPECT_NEAR(back.inclination, el.inclination, 1e-9);
    EXPECT_NEAR(wrap_pi(back.raan - el.raan), 0.0, 1e-9);
    EXPECT_NEAR(wrap_pi(back.arg_perigee - el.arg_perigee), 0.0, 1e-7);
    EXPECT_NEAR(wrap_pi(back.mean_anomaly - true_to_mean(f, el.eccentricity)), 0.0,
                1e-7);
  }
}

INSTANTIATE_TEST_SUITE_P(
    VariousOrbits, StateRoundTrip,
    testing::Values(KeplerElements{7000.0, 0.01, 0.9, 1.2, 0.4, 0.0},
                    KeplerElements{8000.0, 0.2, 1.5, 4.0, 2.0, 0.0},
                    KeplerElements{26560.0, 0.005, 0.96, 0.3, 5.5, 0.0},
                    KeplerElements{42164.0, 0.0003, 0.05, 2.2, 1.0, 0.0},
                    KeplerElements{24400.0, 0.72, 1.1, 3.3, 4.7, 0.0}));

TEST(State, CircularEquatorialDegenerateCase) {
  // e ~ 0, i ~ 0: RAAN and argp undefined; conventions must still give a
  // consistent state round trip.
  const KeplerElements el{42164.0, 0.0, 0.0, 0.0, 0.0, 1.3};
  const StateVector s = state_at_true_anomaly(el, 1.3);
  const KeplerElements back = elements_from_state(s);
  EXPECT_NEAR(back.semi_major_axis, el.semi_major_axis, 1e-6);
  EXPECT_NEAR(back.eccentricity, 0.0, 1e-10);
  const StateVector s2 = state_at_true_anomaly(
      back, eccentric_to_true(back.mean_anomaly, back.eccentricity));
  EXPECT_NEAR(s2.position.distance(s.position), 0.0, 1e-5);
}


TEST(Geometry, VisVivaAtTheApsidesConservesAngularMomentum) {
  // r_p v_p = r_a v_a = sqrt(mu p) for every ellipse.
  for (double e : {0.0, 0.01, 0.3, 0.7}) {
    const KeplerElements el{26000.0, e, 0.5, 0.0, 0.0, 0.0};
    const double h = std::sqrt(kMuEarth * semi_latus_rectum(el));
    EXPECT_NEAR(perigee_radius(el) * max_speed(el), h, 1e-9 * h) << e;
    EXPECT_NEAR(apogee_radius(el) * min_speed(el), h, 1e-9 * h) << e;
  }
}

TEST(Geometry, NormalIsUnitAndMatchesInclination) {
  for (double inc : {0.0, 0.4, kPi / 2.0, 2.5}) {
    const KeplerElements el{7000.0, 0.001, inc, 1.1, 0.3, 0.0};
    const Vec3 n = normal_of(el);
    EXPECT_NEAR(n.norm(), 1.0, 1e-12) << inc;
    // The angle from the equatorial pole is the inclination.
    EXPECT_NEAR(std::acos(std::clamp(n.z, -1.0, 1.0)), inc, 1e-9) << inc;
  }
}

}  // namespace
}  // namespace scod
