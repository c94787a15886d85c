#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <span>
#include <utility>
#include <vector>

#include "orbit/anomaly.hpp"
#include "orbit/geometry.hpp"
#include "propagation/contour_solver.hpp"
#include "propagation/j2_secular.hpp"
#include "propagation/kepler_solver.hpp"
#include "propagation/two_body.hpp"
#include "util/constants.hpp"

namespace scod {
namespace {

struct SolverCase {
  double mean_anomaly;
  double eccentricity;
};

class KeplerSolvers : public testing::TestWithParam<SolverCase> {};

TEST_P(KeplerSolvers, NewtonSatisfiesKeplersEquation) {
  const auto [m, e] = GetParam();
  const NewtonKeplerSolver solver;
  const double big_e = solver.eccentric_anomaly(m, e);
  EXPECT_LT(kepler_residual(big_e, e, m), 1e-12);
}

TEST_P(KeplerSolvers, ContourSatisfiesKeplersEquation) {
  const auto [m, e] = GetParam();
  const ContourKeplerSolver solver;
  const double big_e = solver.eccentric_anomaly(m, e);
  EXPECT_LT(kepler_residual(big_e, e, m), 1e-12);
}

TEST_P(KeplerSolvers, AllSolversAgree) {
  const auto [m, e] = GetParam();
  const NewtonKeplerSolver newton;
  const BisectionKeplerSolver bisection;
  const ContourKeplerSolver contour;
  const double reference = bisection.eccentric_anomaly(m, e);
  EXPECT_NEAR(wrap_pi(newton.eccentric_anomaly(m, e) - reference), 0.0, 1e-9);
  EXPECT_NEAR(wrap_pi(contour.eccentric_anomaly(m, e) - reference), 0.0, 1e-9);
}

std::vector<SolverCase> solver_grid() {
  std::vector<SolverCase> cases;
  for (double e : {0.0, 1e-6, 0.0025, 0.1, 0.5, 0.9, 0.99}) {
    for (int k = 0; k <= 16; ++k) {
      cases.push_back({kTwoPi * k / 16.0, e});
    }
  }
  // Awkward spots: near 0, pi and 2 pi.
  for (double e : {0.3, 0.95}) {
    for (double m : {1e-9, 1e-4, kPi - 1e-6, kPi + 1e-6, kTwoPi - 1e-9, -2.5, 17.0}) {
      cases.push_back({m, e});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(MeanAnomalyEccentricityGrid, KeplerSolvers,
                         testing::ValuesIn(solver_grid()));

TEST(ContourSolver, UnpolishedQuadratureIsAccurate) {
  // The contour quadrature alone (no Newton polish) must already converge
  // geometrically with the node count.
  const ContourKeplerSolver coarse(8, /*polish=*/false);
  const ContourKeplerSolver fine(24, /*polish=*/false);
  for (double e : {0.01, 0.3, 0.7}) {
    for (double m : {0.4, 1.3, 2.8}) {
      EXPECT_LT(kepler_residual(coarse.eccentric_anomaly(m, e), e, m), 1e-4);
      EXPECT_LT(kepler_residual(fine.eccentric_anomaly(m, e), e, m), 1e-10);
    }
  }
}

TEST(ContourSolver, RejectsTooFewPoints) {
  EXPECT_THROW(ContourKeplerSolver(3), std::invalid_argument);
}

TEST(ContourSolver, MirrorSymmetry) {
  const ContourKeplerSolver solver;
  for (double e : {0.2, 0.6}) {
    for (double m : {0.5, 1.5, 2.5}) {
      const double e1 = solver.eccentric_anomaly(m, e);
      const double e2 = solver.eccentric_anomaly(kTwoPi - m, e);
      EXPECT_NEAR(e1 + e2, kTwoPi, 1e-10);
    }
  }
}

Satellite make_sat(std::uint32_t id, KeplerElements el) { return {id, el}; }

TEST(TwoBodyPropagator, PeriodicityAndRadiusBounds) {
  const NewtonKeplerSolver solver;
  const std::vector<Satellite> sats{make_sat(0, {7200.0, 0.05, 1.0, 0.5, 1.0, 0.3})};
  const TwoBodyPropagator prop(sats, solver);
  const double period = orbital_period(sats[0].elements);

  const Vec3 p0 = prop.position(0, 100.0);
  const Vec3 p1 = prop.position(0, 100.0 + period);
  EXPECT_NEAR(p0.distance(p1), 0.0, 1e-5);

  for (double t = 0.0; t < period; t += period / 37.0) {
    const double r = prop.position(0, t).norm();
    EXPECT_GE(r, perigee_radius(sats[0].elements) - 1e-6);
    EXPECT_LE(r, apogee_radius(sats[0].elements) + 1e-6);
  }
}

TEST(TwoBodyPropagator, VelocityMatchesFiniteDifference) {
  const NewtonKeplerSolver solver;
  const std::vector<Satellite> sats{make_sat(0, {6900.0, 0.02, 1.4, 2.0, 0.7, 1.1})};
  const TwoBodyPropagator prop(sats, solver);
  const double t = 500.0, dt = 1e-3;
  const Vec3 numeric =
      (prop.position(0, t + dt) - prop.position(0, t - dt)) / (2.0 * dt);
  const Vec3 analytic = prop.state(0, t).velocity;
  EXPECT_NEAR(numeric.distance(analytic), 0.0, 1e-5);
}

TEST(TwoBodyPropagator, EnergyConservedAlongTrajectory) {
  const ContourKeplerSolver solver;
  const std::vector<Satellite> sats{make_sat(7, {8500.0, 0.15, 0.6, 3.0, 2.5, 4.0})};
  const TwoBodyPropagator prop(sats, solver);
  const double expected = -kMuEarth / (2.0 * sats[0].elements.semi_major_axis);
  for (double t = 0.0; t < 7000.0; t += 333.0) {
    const StateVector s = prop.state(0, t);
    const double energy = s.velocity.norm2() / 2.0 - kMuEarth / s.position.norm();
    EXPECT_NEAR(energy, expected, 1e-8);
  }
}

TEST(TwoBodyPropagator, RejectsInvalidOrbits) {
  const NewtonKeplerSolver solver;
  const std::vector<Satellite> bad{make_sat(3, {6000.0, 0.0, 0, 0, 0, 0})};
  EXPECT_THROW(TwoBodyPropagator(bad, solver), std::invalid_argument);
}

TEST(TwoBodyPropagator, CacheMatchesElements) {
  const NewtonKeplerSolver solver;
  const KeplerElements el{7000.0, 0.01, 0.9, 1.2, 0.4, 2.1};
  const std::vector<Satellite> sats{make_sat(0, el)};
  const TwoBodyPropagator prop(sats, solver);
  EXPECT_DOUBLE_EQ(prop.cache(0).mean_motion, mean_motion(el));
  EXPECT_DOUBLE_EQ(prop.cache(0).semi_latus, semi_latus_rectum(el));
  EXPECT_EQ(prop.elements(0), el);
  EXPECT_EQ(prop.size(), 1u);
}

TEST(J2Rates, SignsMatchTheory) {
  // Prograde orbit: node regresses (negative RAAN rate); below the
  // critical inclination (63.4 deg) the perigee advances.
  const KeplerElements prograde{7000.0, 0.01, 0.5, 0.0, 0.0, 0.0};
  const J2Rates r1 = j2_secular_rates(prograde);
  EXPECT_LT(r1.raan_rate, 0.0);
  EXPECT_GT(r1.arg_perigee_rate, 0.0);

  // Retrograde orbit: node precesses forward.
  const KeplerElements retrograde{7000.0, 0.01, 2.6, 0.0, 0.0, 0.0};
  EXPECT_GT(j2_secular_rates(retrograde).raan_rate, 0.0);

  // At the critical inclination the apsidal rotation vanishes.
  const double critical = std::acos(std::sqrt(1.0 / 5.0));
  const KeplerElements crit{7000.0, 0.01, critical, 0.0, 0.0, 0.0};
  EXPECT_NEAR(j2_secular_rates(crit).arg_perigee_rate, 0.0, 1e-12);
}

TEST(J2Rates, SunSynchronousMagnitude) {
  // A ~800 km SSO at i ~ 98.6 deg regresses ~360 deg/year eastward.
  const KeplerElements sso{kEarthRadius + 800.0, 0.001, 98.6 * kPi / 180.0, 0, 0, 0};
  const J2Rates rates = j2_secular_rates(sso);
  const double year = 365.25 * 86400.0;
  EXPECT_NEAR(rates.raan_rate * year, kTwoPi, 0.05 * kTwoPi);
}

TEST(J2SecularPropagator, ReducesToTwoBodyWhenRatesSmall) {
  // For GEO the J2 rates are tiny; the divergence from the two-body path
  // must stay within the analytic angular-drift bound (rate * t * radius).
  const NewtonKeplerSolver solver;
  const KeplerElements el{42164.0, 0.0005, 0.01, 1.0, 2.0, 3.0};
  const std::vector<Satellite> sats{make_sat(0, el)};
  const TwoBodyPropagator two_body(sats, solver);
  const J2SecularPropagator j2(sats, solver);

  const J2Rates rates = j2_secular_rates(el);
  const double angular_rate = std::abs(rates.raan_rate) +
                              std::abs(rates.arg_perigee_rate) +
                              std::abs(rates.mean_anomaly_rate - mean_motion(el));
  for (double t = 200.0; t <= 600.0; t += 200.0) {
    const double drift = two_body.position(0, t).distance(j2.position(0, t));
    const double bound = 1.5 * angular_rate * t * apogee_radius(el);
    EXPECT_LT(drift, bound);
    EXPECT_LT(drift, 0.5);  // GEO J2 drift stays sub-km over 10 minutes
  }
}

TEST(J2SecularPropagator, NodePrecessesOverTime) {
  const NewtonKeplerSolver solver;
  const KeplerElements el{7000.0, 0.001, 0.9, 1.0, 0.0, 0.0};
  const std::vector<Satellite> sats{make_sat(0, el)};
  const J2SecularPropagator j2(sats, solver);
  const TwoBodyPropagator two_body(sats, solver);

  // After a day the orbital planes should measurably differ.
  const double day = 86400.0;
  const double drift = two_body.position(0, day).distance(j2.position(0, day));
  EXPECT_GT(drift, 10.0);  // tens of km of nodal drift per day in LEO

  // The J2 position must still lie at the correct radius band.
  const double r = j2.position(0, day).norm();
  EXPECT_GE(r, perigee_radius(el) - 1.0);
  EXPECT_LE(r, apogee_radius(el) + 1.0);
}

TEST(Propagator, DistanceIsSymmetric) {
  const NewtonKeplerSolver solver;
  const std::vector<Satellite> sats{make_sat(0, {7000.0, 0.01, 0.9, 1.2, 0.4, 2.1}),
                                    make_sat(1, {7050.0, 0.02, 1.1, 0.2, 1.4, 0.1})};
  const TwoBodyPropagator prop(sats, solver);
  EXPECT_DOUBLE_EQ(prop.distance(0, 1, 321.0), prop.distance(1, 0, 321.0));
  EXPECT_DOUBLE_EQ(prop.distance(0, 0, 321.0), 0.0);
}

TEST(BatchSolver, ContourBatchIsBitIdenticalToScalar) {
  // The batched kernel runs the exact operation sequence of the scalar
  // path, so the results must agree to the last bit — including the
  // degenerate inputs that take the Newton fallback and partial tail
  // blocks (the grid covers several non-multiples of the 64-lane block).
  const ContourKeplerSolver solver;
  std::vector<double> ms, es;
  for (double e : {0.0, 1e-12, 1e-6, 0.0025, 0.1, 0.5, 0.9, 0.95, 0.99}) {
    for (int k = 0; k <= 16; ++k) {
      ms.push_back(kTwoPi * k / 16.0);
      es.push_back(e);
    }
    for (double m : {1e-9, 1e-4, kPi - 1e-6, kPi + 1e-6, kTwoPi - 1e-9, -2.5, 17.0}) {
      ms.push_back(m);
      es.push_back(e);
    }
  }
  std::vector<double> batch(ms.size());
  solver.eccentric_anomalies(ms, es, batch);
  for (std::size_t i = 0; i < ms.size(); ++i) {
    EXPECT_EQ(batch[i], solver.eccentric_anomaly(ms[i], es[i]))
        << "m=" << ms[i] << " e=" << es[i];
  }
}

TEST(BatchSolver, BaseClassFallbackLoopsScalar) {
  // Solvers without a batched override inherit a scalar loop.
  const NewtonKeplerSolver solver;
  const std::vector<double> ms{0.1, 1.0, 3.0, 5.5};
  const std::vector<double> es{0.0, 0.2, 0.7, 0.95};
  std::vector<double> batch(ms.size());
  solver.eccentric_anomalies(ms, es, batch);
  for (std::size_t i = 0; i < ms.size(); ++i) {
    EXPECT_EQ(batch[i], solver.eccentric_anomaly(ms[i], es[i]));
  }
}

TEST(BatchSolver, RejectsMismatchedSpans) {
  const ContourKeplerSolver contour;
  const NewtonKeplerSolver newton;
  std::vector<double> ms{0.1, 0.2}, es{0.3}, out(2);
  EXPECT_THROW(contour.eccentric_anomalies(ms, es, out), std::invalid_argument);
  EXPECT_THROW(newton.eccentric_anomalies(ms, es, out), std::invalid_argument);
}

TEST(TwoBodyPropagator, BatchPositionsMatchScalarAcrossEccentricities) {
  // Property sweep of the SoA kernel: eccentricities up to 0.95 x a full
  // revolution of mean anomaly. The batch path is bit-identical by
  // construction; 1e-12 km is far below one ulp at orbital radii, so any
  // divergence between the two code paths fails loudly.
  const ContourKeplerSolver solver;
  std::vector<Satellite> sats;
  std::uint32_t id = 0;
  for (double e : {0.0, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95}) {
    // Perigee must clear the Earth's surface: a (1 - e) > 6378 km.
    const double a = 7000.0 / (1.0 - e);
    for (int k = 0; k < 12; ++k) {
      const double m = kTwoPi * k / 12.0;
      sats.push_back(make_sat(id, {a, e, 0.7 + 0.1 * (id % 5), 0.3 * (id % 7),
                                   0.5 * (id % 3), m}));
      ++id;
    }
  }
  const TwoBodyPropagator prop(sats, solver);

  std::vector<Vec3> batch(sats.size());
  for (double t : {0.0, 13.7, 911.0, 5000.0, 86400.0}) {
    prop.positions_at(t, 0, sats.size(), batch.data());
    for (std::size_t i = 0; i < sats.size(); ++i) {
      EXPECT_LE(prop.position(i, t).distance(batch[i]), 1e-12)
          << "sat " << i << " t=" << t;
    }
  }
}

TEST(TwoBodyPropagator, BatchPositionsHonorSubranges) {
  const ContourKeplerSolver solver;
  std::vector<Satellite> sats;
  for (std::uint32_t i = 0; i < 300; ++i) {
    sats.push_back(make_sat(i, {7000.0 + 3.0 * i, 0.001 * (i % 50), 1.0, 0.5,
                                1.0, 0.02 * i}));
  }
  const TwoBodyPropagator prop(sats, solver);

  // Ranges chosen to exercise offsets that are not multiples of the
  // internal block size, including a single-element range.
  const std::pair<std::size_t, std::size_t> ranges[] = {
      {0, 300}, {1, 300}, {37, 97}, {255, 258}, {299, 300}};
  for (const auto& [begin, end] : ranges) {
    std::vector<Vec3> batch(end - begin);
    prop.positions_at(777.0, begin, end, batch.data());
    for (std::size_t i = begin; i < end; ++i) {
      EXPECT_LE(prop.position(i, 777.0).distance(batch[i - begin]), 1e-12);
    }
  }
}

/// Forwards batched solves to a ContourKeplerSolver and counts the lanes it
/// was asked for: the warm-start kernel's cold re-solves.
class CountingSolver final : public KeplerSolver {
 public:
  double eccentric_anomaly(double m, double e) const override {
    return inner_.eccentric_anomaly(m, e);
  }
  void eccentric_anomalies(std::span<const double> ms, std::span<const double> es,
                           std::span<double> out) const override {
    lanes += ms.size();
    inner_.eccentric_anomalies(ms, es, out);
  }
  mutable std::size_t lanes = 0;

 private:
  ContourKeplerSolver inner_;
};

/// Satellites with perigee at 7000 km for each eccentricity, at mean
/// anomalies 0, pi and 2 pi (the contour solver's degenerate points) and
/// two between them.
std::vector<Satellite> warm_start_sats(std::initializer_list<double> eccentricities) {
  std::vector<Satellite> sats;
  std::uint32_t id = 0;
  for (double e : eccentricities) {
    for (double m : {0.0, 1.0, kPi, 4.0, kTwoPi}) {
      sats.push_back(make_sat(id, {7000.0 / (1.0 - e), e, 0.3 + 0.2 * (id % 7),
                                   0.4 * (id % 5), 0.9 * (id % 3), m}));
      ++id;
    }
  }
  return sats;
}

TEST(TwoBodyPropagator, WarmPositionsMatchScalarAcrossEccentricitiesAndSteps) {
  // The warm-start kernel is not bit-identical to position(), but it must
  // agree to 1e-9 km for every eccentricity the screeners meet, for sample
  // periods from 1 s to 600 s, starting at epoch and a month after it, and
  // over spans of several revolutions (at 600 s, six of the e = 0.9 orbit's
  // 51 h revolutions and two hundred of the circular one's).
  const ContourKeplerSolver solver;
  const auto sats = warm_start_sats({0.0, 1e-12, 0.3, 0.9});
  const TwoBodyPropagator prop(sats, solver);
  const std::size_t n = sats.size();

  std::vector<Vec3> warm(n);
  std::vector<double> anomalies(n);
  for (const double dt : {1.0, 7.0, 60.0, 600.0}) {
    const auto steps = static_cast<std::size_t>(std::max(2000.0, 20000.0 / dt));
    for (const double t0 : {0.0, 30.0 * 86400.0}) {
      prop.positions_at(t0, 0, n, warm.data(), anomalies.data());
      double worst = 0.0;
      for (std::size_t s = 1; s <= steps; ++s) {
        const double t = t0 + static_cast<double>(s) * dt;
        prop.positions_warm(t, dt, 0, n, anomalies.data(), warm.data());
        for (std::size_t i = 0; i < n; ++i) {
          worst = std::max(worst, prop.position(i, t).distance(warm[i]));
        }
      }
      EXPECT_LE(worst, 1e-9) << "dt=" << dt << " t0=" << t0;
    }
  }
}

TEST(TwoBodyPropagator, WarmPositionsReSolveUnsettledLanesCold) {
  // A good warm state settles every lane in Newton's steps; a state that
  // is far off (or NaN) leaves the correction large, and those lanes are
  // re-solved by the configured solver, so positions still match.
  const CountingSolver solver;
  const auto sats = warm_start_sats({0.01, 0.3, 0.9});
  const TwoBodyPropagator prop(sats, solver);
  const std::size_t n = sats.size();
  std::vector<Vec3> out(n);
  std::vector<double> anomalies(n);

  prop.positions_at(100.0, 0, n, out.data(), anomalies.data());
  solver.lanes = 0;
  prop.positions_warm(104.0, 4.0, 0, n, anomalies.data(), out.data());
  EXPECT_EQ(solver.lanes, 0u);

  // Steps from 104 s to 108 s after `corrupt` has spoilt the state, checks
  // the positions and returns the lanes re-solved cold.
  const auto step_from = [&](auto corrupt) {
    prop.positions_at(104.0, 0, n, out.data(), anomalies.data());
    for (double& big_e : anomalies) big_e = corrupt(big_e);
    solver.lanes = 0;
    prop.positions_warm(108.0, 4.0, 0, n, anomalies.data(), out.data());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_LE(prop.position(i, 108.0).distance(out[i]), 1e-9) << "sat " << i;
    }
    return solver.lanes;
  };
  EXPECT_EQ(step_from([](double) { return std::nan(""); }), n);
  // Three radians off at e = 0.9 is outside three Newton steps' reach.
  EXPECT_GT(step_from([](double big_e) { return big_e + 3.0; }), 0u);
  // A start a million radians off still gives exact positions: it is
  // shifted by whole turns and clamped to the root's bracket, and any lane
  // Newton does not settle is re-solved cold.
  step_from([](double big_e) { return big_e + 1.0e6; });
}

TEST(TwoBodyPropagator, WarmAnomaliesGiveStatesWithinTheReachMargin) {
  // The grid front end's reach test turns the anomalies positions_warm
  // leaves behind into states (detail::state_from_anomaly) and keeps
  // kReachBoundMarginKm = 1e-3 km of slack for their error. They must
  // agree with state() far inside it, for e from 0 to 0.9 and sample
  // periods up to 64 s, and so must the lanes positions_warm re-solves
  // cold (here forced every 50th step by spoiling the state).
  const CountingSolver solver;
  const auto sats = warm_start_sats({0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9});
  const TwoBodyPropagator prop(sats, solver);
  const std::size_t n = sats.size();

  std::vector<Vec3> out(n);
  std::vector<double> anomalies(n);
  for (const double dt : {1.0, 4.0, 16.0, 64.0}) {
    prop.positions_at(0.0, 0, n, out.data(), anomalies.data());
    solver.lanes = 0;
    double worst_position = 0.0, worst_velocity = 0.0;
    for (std::size_t s = 1; s <= 400; ++s) {
      if (s % 50 == 0) {
        for (std::size_t i = 0; i < n; i += 2) anomalies[i] += 3.0;
      }
      const double t = static_cast<double>(s) * dt;
      prop.positions_warm(t, dt, 0, n, anomalies.data(), out.data());
      for (std::size_t i = 0; i < n; ++i) {
        const StateVector warm = detail::state_from_anomaly(prop.cache(i), anomalies[i]);
        const StateVector cold = prop.state(i, t);
        worst_position = std::max(worst_position, warm.position.distance(cold.position));
        worst_velocity = std::max(worst_velocity, warm.velocity.distance(cold.velocity));
      }
    }
    EXPECT_GT(solver.lanes, 0u) << "dt=" << dt;
    EXPECT_LE(worst_position, 1e-6) << "dt=" << dt;
    EXPECT_LE(worst_velocity, 1e-9) << "dt=" << dt;
  }
}

TEST(TwoBodyPropagator, ColdPositionsReportTheSolvedAnomalies) {
  // positions_at's optional anomaly output is the solver's E, and the
  // positions are unchanged by asking for it.
  const ContourKeplerSolver solver;
  const auto sats = warm_start_sats({0.0, 0.3, 0.9});
  const TwoBodyPropagator prop(sats, solver);
  std::vector<Vec3> plain(sats.size()), with(sats.size());
  std::vector<double> anomalies(sats.size());
  prop.positions_at(321.0, 0, sats.size(), plain.data());
  prop.positions_at(321.0, 0, sats.size(), with.data(), anomalies.data());
  for (std::size_t i = 0; i < sats.size(); ++i) {
    const TwoBodyCache& c = prop.cache(i);
    EXPECT_EQ(anomalies[i],
              solver.eccentric_anomaly(c.mean_anomaly0 + c.mean_motion * 321.0,
                                       c.eccentricity));
    EXPECT_EQ(plain[i].x, with[i].x);
    EXPECT_EQ(plain[i].y, with[i].y);
    EXPECT_EQ(plain[i].z, with[i].z);
  }
}

TEST(TwoBodyPropagator, StateVelocityConsistentWithPositions) {
  // The velocity formula was rewritten in E-form with the SoA refactor;
  // cross-check against a central difference of the position.
  const ContourKeplerSolver solver;
  const std::vector<Satellite> sats{make_sat(0, {9000.0, 0.25, 1.1, 0.8, 2.2, 0.9})};
  const TwoBodyPropagator prop(sats, solver);
  const double h = 1e-3;
  for (double t : {10.0, 1234.5, 4321.0}) {
    const Vec3 v = prop.state(0, t).velocity;
    const Vec3 lo = prop.position(0, t - h);
    const Vec3 hi = prop.position(0, t + h);
    const Vec3 fd{(hi.x - lo.x) / (2.0 * h), (hi.y - lo.y) / (2.0 * h),
                  (hi.z - lo.z) / (2.0 * h)};
    EXPECT_LE(v.distance(fd), 1e-4 * v.norm());
  }
}


TEST(J2Rates, PolarOrbitHasNoNodalDrift) {
  const KeplerElements polar{7000.0, 0.01, kPi / 2.0, 1.0, 0.5, 0.0};
  const J2Rates rates = j2_secular_rates(polar);
  EXPECT_NEAR(rates.raan_rate, 0.0, 1e-18);
  // Beyond the critical inclination the perigee regresses.
  EXPECT_LT(rates.arg_perigee_rate, 0.0);
}

TEST(J2Rates, FadeWithAltitude) {
  // The secular rates scale as a^-3.5 for fixed e and i.
  const KeplerElements low{7000.0, 0.001, 0.9, 0.0, 0.0, 0.0};
  const KeplerElements high{14000.0, 0.001, 0.9, 0.0, 0.0, 0.0};
  const double ratio = j2_secular_rates(low).raan_rate / j2_secular_rates(high).raan_rate;
  EXPECT_NEAR(ratio, std::pow(2.0, 3.5), 1e-9 * ratio);
  const double apsidal =
      j2_secular_rates(low).arg_perigee_rate / j2_secular_rates(high).arg_perigee_rate;
  EXPECT_NEAR(apsidal, std::pow(2.0, 3.5), 1e-9 * apsidal);
}

}  // namespace
}  // namespace scod
