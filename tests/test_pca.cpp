#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "core/screen.hpp"
#include "obs/telemetry.hpp"
#include "orbit/geometry.hpp"
#include "pca/brent.hpp"
#include "pca/pair_evaluator.hpp"
#include "pca/refine.hpp"
#include "propagation/contour_solver.hpp"
#include "propagation/j2_secular.hpp"
#include "propagation/kepler_solver.hpp"
#include "propagation/two_body.hpp"
#include "scenario_helpers.hpp"
#include "util/constants.hpp"
#include "util/rng.hpp"

namespace scod {
namespace {

TEST(Brent, QuadraticMinimum) {
  const auto f = [](double x) { return (x - 3.5) * (x - 3.5) + 2.0; };
  const MinimizeResult r = brent_minimize(f, 0.0, 10.0, 1e-10);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x, 3.5, 1e-8);
  EXPECT_NEAR(r.value, 2.0, 1e-12);
}

TEST(Brent, NonSmoothFunction) {
  const auto f = [](double x) { return std::abs(x - 1.25) + 0.5; };
  const MinimizeResult r = brent_minimize(f, -4.0, 6.0, 1e-9);
  EXPECT_NEAR(r.x, 1.25, 1e-7);
  EXPECT_NEAR(r.value, 0.5, 1e-7);
}

TEST(Brent, CosineMinimum) {
  const MinimizeResult r = brent_minimize([](double x) { return std::cos(x); },
                                          2.0, 5.0, 1e-12);
  EXPECT_NEAR(r.x, kPi, 1e-8);
  EXPECT_NEAR(r.value, -1.0, 1e-12);
}

TEST(Brent, ReversedBoundsAccepted) {
  const auto f = [](double x) { return x * x; };
  const MinimizeResult r = brent_minimize(f, 2.0, -2.0, 1e-10);
  EXPECT_NEAR(r.x, 0.0, 1e-8);
}

TEST(Brent, MinimumAtBoundary) {
  // Monotone increasing: minimum is the left endpoint.
  const MinimizeResult r = brent_minimize([](double x) { return x; }, 1.0, 4.0, 1e-10);
  EXPECT_NEAR(r.x, 1.0, 1e-6);
  EXPECT_NEAR(r.value, r.x, 1e-12);
}

TEST(Brent, UsesFewerEvaluationsThanGolden) {
  // On smooth functions the parabolic steps should beat pure golden
  // section by a wide margin.
  const auto f = [](double x) { return std::pow(x - 2.0, 4) + (x - 2.0) * (x - 2.0); };
  const MinimizeResult brent = brent_minimize(f, -10.0, 10.0, 1e-10);
  const MinimizeResult golden = golden_section_minimize(f, -10.0, 10.0, 1e-10);
  EXPECT_NEAR(brent.x, golden.x, 1e-6);
  EXPECT_LT(brent.iterations, golden.iterations);
}

class BrentVsGolden : public testing::TestWithParam<double> {};

TEST_P(BrentVsGolden, AgreeOnShiftedQuartics) {
  const double shift = GetParam();
  const auto f = [shift](double x) {
    return std::pow(x - shift, 4) - 2.0 * std::pow(x - shift, 2) + 0.3 * (x - shift);
  };
  // This function has two local minima; restrict to a unimodal bracket
  // right of the maximum.
  const MinimizeResult b = brent_minimize(f, shift, shift + 3.0, 1e-10);
  const MinimizeResult g = golden_section_minimize(f, shift, shift + 3.0, 1e-10);
  EXPECT_NEAR(b.x, g.x, 1e-6);
  EXPECT_NEAR(b.value, g.value, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Shifts, BrentVsGolden,
                         testing::Values(-20.0, -1.0, 0.0, 0.7, 5.0, 300.0));

TEST(GridSearchRadius, TwoCellCrossingTime) {
  EXPECT_DOUBLE_EQ(grid_search_radius(10.0, 5.0), 4.0);
  EXPECT_DOUBLE_EQ(grid_search_radius(9.8, 7.8), 2.0 * 9.8 / 7.8);
}

class RefineFixture : public testing::Test {
 protected:
  RefineFixture() {
    // Two circular orbits in perpendicular planes with equal radius: they
    // intersect on a line, and with the right phasing the satellites pass
    // the intersection nearly simultaneously -> a deep, well-defined PCA.
    sats_.push_back({0, {7000.0, 0.0001, 0.0, 0.0, 0.0, 0.0}});
    sats_.push_back({1, {7000.0, 0.0001, kPi / 2.0, 0.0, 0.0, 0.01}});
    prop_ = std::make_unique<TwoBodyPropagator>(sats_, solver_);
    for (double t = 1000.0; t < 4000.0; t += 0.5) {
      const double d = distance(t);
      if (d < best_d_) {
        best_d_ = d;
        best_t_ = t;
      }
    }
  }

  double distance(double t) const { return prop_->distance(0, 1, t); }

  /// refine_fn on [t_lo, t_hi] inside the span [t_min, t_max].
  std::optional<Encounter> refine(double t_lo, double t_hi, double t_min,
                                  double t_max) const {
    return refine_fn([this](double t) { return distance(t); }, t_lo, t_hi, t_min, t_max);
  }

  NewtonKeplerSolver solver_;
  std::vector<Satellite> sats_;
  std::unique_ptr<TwoBodyPropagator> prop_;
  /// The encounter, located by a 0.5 s scan over [1000, 4000) s.
  double best_t_ = 0.0;
  double best_d_ = 1e300;
};

TEST_F(RefineFixture, FindsInteriorMinimum) {
  // A search interval of radius 30 s centred 3 s from the true minimum.
  const auto enc = refine(best_t_ + 3.0 - 30.0, best_t_ + 3.0 + 30.0, 0.0, 5000.0);
  ASSERT_TRUE(enc.has_value());
  EXPECT_NEAR(enc->tca, best_t_, 1.0);
  EXPECT_LE(enc->pca, best_d_ + 1e-6);
}

TEST_F(RefineFixture, DiscardsBoundaryMinimumOwnedByNeighbourInterval) {
  // Place the interval so the distance still falls at its right edge; the
  // candidate must be discarded (the neighbouring interval owns the
  // minimum).
  const double center = best_t_ - 100.0;  // minimum lies 100 s right of center
  const auto enc = refine(center - 50.0, center + 50.0, 0.0, 5000.0);
  EXPECT_FALSE(enc.has_value());
}

TEST_F(RefineFixture, DiscardsEdgeMinimumJustPastTheTrueMinimum) {
  // The lower edge lies 1.7 s past the true minimum, and the interval has
  // the 134 s radius of a coarse-s_ps grid candidate. The distance still
  // falls beyond the edge, so the edge minimum must be discarded. A probe
  // that reached further than the minimum (5% of the radius, 6.7 s) saw
  // the distance rising again and kept the edge.
  const double t_lo = best_t_ + 1.7;
  const bool telemetry = obs::compiled();
  obs::set_enabled(true);
  obs::reset();
  const auto enc = refine(t_lo, t_lo + 2.0 * 134.0, 0.0, 5000.0);
  const std::uint64_t discards = obs::snapshot().value(obs::Counter::kEdgeDiscards);
  obs::set_enabled(false);
  EXPECT_FALSE(enc.has_value()) << "tca " << enc->tca << " pca " << enc->pca;
  if (telemetry) {
    EXPECT_EQ(discards, 1u);
  }
}

TEST_F(RefineFixture, SpanBoundaryMinimumIsClamped) {
  // If the span itself ends before the approach completes, the clamped
  // edge minimum must be reported, not discarded (there is no neighbouring
  // interval beyond the span).
  const double span_end = best_t_ - 20.0;  // span ends while still approaching
  const auto enc = refine(span_end - 15.0, span_end, 0.0, span_end);
  ASSERT_TRUE(enc.has_value());
  EXPECT_NEAR(enc->tca, span_end, 1.0);
}

TEST_F(RefineFixture, RefineOnIntervalAgrees) {
  // An interval with no span to respect, as the filter windows are refined.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto enc = refine(best_t_ - 40.0, best_t_ + 40.0, -kInf, kInf);
  ASSERT_TRUE(enc.has_value());
  EXPECT_NEAR(enc->tca, best_t_, 1.0);

  // Degenerate interval.
  EXPECT_FALSE(refine(10.0, 10.0, -kInf, kInf).has_value());
  EXPECT_FALSE(refine(10.0, 5.0, -kInf, kInf).has_value());
}

TEST_F(RefineFixture, WindowRefinementAcceptsOnlyInSpanSubThresholdEncounters) {
  const PropagatorPairEvaluator eval(*prop_, 0, 1);
  // A 20 s window ending 5 s before the minimum: its 10 s extension
  // reaches the minimum, which is found and accepted.
  const auto found =
      refine_window(eval, best_t_ - 25.0, best_t_ - 5.0, best_d_ + 1.0, 0.0, 5000.0);
  ASSERT_TRUE(found.has_value());
  EXPECT_NEAR(found->tca, best_t_, 1.0);
  EXPECT_LE(found->pca, best_d_ + 1e-6);
  // The same minimum above the threshold, or outside the span, is refused.
  EXPECT_FALSE(
      refine_window(eval, best_t_ - 25.0, best_t_ - 5.0, 0.5 * best_d_, 0.0, 5000.0)
          .has_value());
  EXPECT_FALSE(refine_window(eval, best_t_ - 25.0, best_t_ - 5.0, best_d_ + 1.0, 0.0,
                             best_t_ - 2.0)
                   .has_value());
}

TEST(ReachBound, TwoBodyMaxAccelerationIsMuOverPerigeeSquared) {
  const std::vector<Satellite> sats{{0, {7000.0, 0.0, 0.3, 0.0, 0.0, 0.0}},
                                    {1, {9000.0, 0.25, 1.1, 0.4, 2.0, 1.0}},
                                    {2, {26560.0, 0.7, 1.1, 0.4, 4.7, 3.0}}};
  const ContourKeplerSolver solver;
  const TwoBodyPropagator prop(sats, solver);
  for (std::size_t i = 0; i < sats.size(); ++i) {
    const KeplerElements& el = sats[i].elements;
    const double perigee = el.semi_major_axis * (1.0 - el.eccentricity);
    EXPECT_DOUBLE_EQ(prop.max_acceleration(i), kMuEarth / (perigee * perigee));
    // mu / r^2 never exceeds it along the orbit.
    for (double t = 0.0; t < 20000.0; t += 37.0) {
      const double r = prop.position(i, t).norm();
      EXPECT_LE(kMuEarth / (r * r), prop.max_acceleration(i) * (1.0 + 1e-12));
    }
  }
  // A propagator that does not override it proves nothing.
  const J2SecularPropagator j2(sats, solver);
  EXPECT_EQ(j2.max_acceleration(0), std::numeric_limits<double>::infinity());
}

TEST(ReachBound, LineMinimumIsClosedForm) {
  // Closest point of the line inside the range, then clamped to an edge.
  EXPECT_DOUBLE_EQ(
      reach_lower_bound({3.0, -4.0, 0.0}, {0.0, 1.0, 0.0}, 0.0, 0.0, -10.0, 10.0), 3.0);
  EXPECT_DOUBLE_EQ(
      reach_lower_bound({3.0, -4.0, 0.0}, {0.0, 1.0, 0.0}, 0.0, 0.0, -1.0, 2.0),
      std::hypot(3.0, 2.0));
  // The acceleration term uses the longer side of the range.
  EXPECT_DOUBLE_EQ(reach_lower_bound({5.0, 0.0, 0.0}, {}, 0.02, 0.0, -10.0, 4.0), 4.0);
  // The tidal term lies M (cosh(sqrt(k) tau_max) - 1) below the line's
  // minimum, with k = 2 mu / r_m^3 at the chord radius r_m = sqrt(p^2 -
  // S^2 / 4) and S = M + A tau_max^2 / 2 = 6; where r_m^2 <= 0 only the
  // first-order term is left.
  const double r_m = std::sqrt(7000.0 * 7000.0 - 0.25 * 6.0 * 6.0);
  const double k = 2.0 * kMuEarth / (r_m * r_m * r_m);
  EXPECT_NEAR(reach_lower_bound({5.0, 0.0, 0.0}, {}, 0.02, 7000.0, -10.0, 4.0),
              5.0 - 5.0 * (std::cosh(std::sqrt(k) * 10.0) - 1.0), 1e-12);
  EXPECT_DOUBLE_EQ(reach_lower_bound({5.0, 0.0, 0.0}, {}, 0.02, 2.9, -10.0, 4.0), 4.0);
  EXPECT_EQ(reach_lower_bound({5.0, 0.0, 0.0}, {}, std::numeric_limits<double>::infinity(),
                              7000.0, -1.0, 1.0),
            -std::numeric_limits<double>::infinity());
}

/// One grid candidate of a soundness case: the pair, the sample time and
/// the settings the reach test and refine_grid_candidate see.
struct ReachCase {
  std::vector<Satellite> sats;
  double t_sample = 0.0;
  double cell_size = 0.0;
  double threshold = 0.0;
  double t_min = 0.0;
  double t_max = 0.0;

  /// The pair's lower perigee radius, which the tidal term of the reach
  /// bound takes.
  double perigee() const {
    return std::min(perigee_radius(sats[0].elements), perigee_radius(sats[1].elements));
  }
};

/// Whether the reach test rejects `c`, with the states the grid front end
/// takes on the CPU: from anomalies warm-started 16 s before the sample
/// (TwoBodyPropagator::positions_warm). The verdict must be the one the
/// cold states of state() give, and a candidate the test keeps is refined
/// alike through the screeners' devirtualized path and the virtual one.
bool reach_rejects(const ReachCase& c) {
  const ContourKeplerSolver solver;
  const TwoBodyPropagator direct(c.sats, solver);
  double big_e[2];
  Vec3 positions[2];
  direct.positions_at(c.t_sample - 16.0, 0, 2, positions, big_e);
  direct.positions_warm(c.t_sample, 16.0, 0, 2, big_e, positions);
  const double accel = direct.max_acceleration(0) + direct.max_acceleration(1);
  const double perigee = c.perigee();
  const bool warm = out_of_reach(detail::state_from_anomaly(direct.cache(0), big_e[0]),
                                 detail::state_from_anomaly(direct.cache(1), big_e[1]),
                                 accel, perigee, c.t_sample, c.cell_size, c.threshold,
                                 c.t_min, c.t_max);
  const bool cold = out_of_reach(direct.state(0, c.t_sample), direct.state(1, c.t_sample),
                                 accel, perigee, c.t_sample, c.cell_size, c.threshold,
                                 c.t_min, c.t_max);
  EXPECT_EQ(warm, cold);
  if (cold) return true;

  const testutil::ForwardingPropagator forwarded(direct);
  const auto refine = [&](const Propagator& p) {
    return RefineFastPath::probe(p).visit(0, 1, [&](const auto& eval) {
      return refine_grid_candidate(eval, c.t_sample, c.cell_size, c.threshold, c.t_min,
                                   c.t_max);
    });
  };
  const std::optional<Encounter> fast = refine(direct);
  const std::optional<Encounter> slow = refine(forwarded);
  EXPECT_EQ(fast.has_value(), slow.has_value());
  if (fast && slow) {
    EXPECT_EQ(fast->tca, slow->tca);
    EXPECT_EQ(fast->pca, slow->pca);
  }
  return false;
}

/// What the search of `c` can see: the minimum distance over every time
/// it can evaluate (the clamped interval widened by the edge probes),
/// scanned at 0.01 s plus the range's ends, and the reach bound over the
/// same range, with and without its tidal term.
struct WindowScan {
  double min_distance = 0.0;
  double bound = 0.0;
  double first_order = 0.0;  ///< the bound with no perigee, so no tidal term
  /// Whether the tidal term applies: r_m^2 = p^2 - S^2 / 4 > 0, with S =
  /// M + A tau_max^2 / 2 the first-order bound on the separation.
  bool tidal_applies = false;
};

WindowScan scan_search_window(const ReachCase& c) {
  // Newton, several times faster here than the screens' Contour solver;
  // both solve Kepler's equation to rounding.
  const NewtonKeplerSolver solver;
  const TwoBodyPropagator prop(c.sats, solver);
  const StateVector a = prop.state(0, c.t_sample);
  const StateVector b = prop.state(1, c.t_sample);
  const double radius =
      grid_search_radius(c.cell_size, std::min(a.velocity.norm(), b.velocity.norm()));
  // The interval written out, not taken from grid_search_interval.
  const double t_lo = std::max(c.t_sample - radius, c.t_min) - kEdgeProbeSeconds;
  const double t_hi = std::min(c.t_sample + radius, c.t_max) + kEdgeProbeSeconds;
  const double lo = std::max(t_lo, c.t_min);
  const double hi = std::min(t_hi, c.t_max);

  WindowScan scan;
  scan.min_distance = std::min(prop.distance(0, 1, lo), prop.distance(0, 1, hi));
  for (double t = lo; t < hi; t += 0.01) {
    scan.min_distance = std::min(scan.min_distance, prop.distance(0, 1, t));
  }
  const Vec3 r0 = b.position - a.position;
  const Vec3 v0 = b.velocity - a.velocity;
  const double accel = prop.max_acceleration(0) + prop.max_acceleration(1);
  const double tau_lo = t_lo - c.t_sample, tau_hi = t_hi - c.t_sample;
  scan.bound = reach_lower_bound(r0, v0, accel, c.perigee(), tau_lo, tau_hi);
  scan.first_order = reach_lower_bound(r0, v0, accel, 0.0, tau_lo, tau_hi);
  const double tau_max = std::max(-tau_lo, tau_hi);
  const double separation =
      std::max((r0 + v0 * tau_lo).norm(), (r0 + v0 * tau_hi).norm()) +
      0.5 * accel * tau_max * tau_max;
  scan.tidal_applies = c.perigee() * c.perigee() - 0.25 * separation * separation > 0.0;
  return scan;
}

/// Elements near `el`: the same orbit shifted in every angle and in size,
/// so the pair stays within tens of km for part of the orbit.
KeplerElements perturbed(KeplerElements el, Rng& rng, double angle, double size_km) {
  el.semi_major_axis += rng.uniform(-size_km, size_km);
  el.inclination += rng.uniform(-angle, angle);
  el.raan += rng.uniform(-angle, angle);
  el.arg_perigee += rng.uniform(-angle, angle);
  el.mean_anomaly += rng.uniform(-angle, angle);
  return el;
}

TEST(ReachBound, SkipsOnlyWhereTheWholeWindowStaysAboveThreshold) {
  // Eccentric orbits, low perigees, co-orbital twins and crossing pairs in
  // LEO; GEO and MEO pairs; HEO pairs up to e = 0.8 with perigees near
  // 200 km altitude; and windows so long that the tidal term's chord bound
  // fails (r_m^2 <= 0), where only the first-order term holds. A third of
  // the samples sit next to a span edge, so the window clamps.
  Rng rng(0x5EAC4);
  constexpr int kLongWindows = 7;
  int skipped = 0, searched = 0, clamped_skips = 0, tidal_skips = 0, first_order_only = 0;
  std::array<int, 8> regime_skips{};
  // 100 cases of each short-window regime, then 40 of the long windows,
  // whose dense scans cost the most: their spans are kept to 20-25 min, so
  // the window spans most of it from a sample near a span edge.
  for (int k = 0; k < 740; ++k) {
    const int regime = k < 700 ? k % 7 : kLongWindows;
    const bool long_window = regime == kLongWindows;
    ReachCase c;
    c.cell_size = long_window ? rng.uniform(3000.0, 5000.0) : rng.uniform(5.0, 150.0);
    c.threshold = rng.uniform(0.5, 20.0);
    c.t_min = rng.uniform(0.0, 5000.0);
    c.t_max = c.t_min + (long_window ? rng.uniform(1200.0, 1500.0)
                                     : rng.uniform(300.0, 3600.0));

    KeplerElements a;
    a.inclination = rng.uniform(0.1, kPi - 0.1);
    a.raan = rng.uniform(0.0, kTwoPi);
    a.arg_perigee = rng.uniform(0.0, kTwoPi);
    a.mean_anomaly = rng.uniform(0.0, kTwoPi);
    KeplerElements b;
    // A crossing orbit that passes within a few thresholds of `a`.
    const auto crossing = [&] {
      const double t_star = rng.uniform(c.t_min, c.t_max);
      return testutil::make_interceptor(a, t_star, rng.uniform(-3.0, 3.0) * c.threshold,
                                        rng, 1)
          .elements;
    };
    switch (regime) {
      case 0: {  // eccentric, perigee in LEO
        a.semi_major_axis = rng.uniform(8000.0, 26000.0);
        a.eccentricity = 1.0 - rng.uniform(6600.0, 7500.0) / a.semi_major_axis;
        b = perturbed(a, rng, 2e-3, 3.0);
        break;
      }
      case 1: {  // low perigee, mildly eccentric
        a.eccentricity = rng.uniform(0.0, 0.05);
        a.semi_major_axis = rng.uniform(6450.0, 6700.0) / (1.0 - a.eccentricity);
        b = perturbed(a, rng, 3e-3, 2.0);
        break;
      }
      case 2: {  // co-orbital twin trailing by up to ~20 km
        a.semi_major_axis = rng.uniform(6800.0, 7500.0);
        a.eccentricity = rng.uniform(0.0, 1e-3);
        b = a;
        b.mean_anomaly += rng.uniform(-3e-3, 3e-3);
        b.semi_major_axis += rng.uniform(-0.5, 0.5);
        break;
      }
      case 3: {  // crossing orbit
        a.semi_major_axis = rng.uniform(6800.0, 12000.0);
        a.eccentricity = rng.uniform(0.0, 0.3) * (1.0 - 6700.0 / a.semi_major_axis);
        b = crossing();
        break;
      }
      case 4: {  // GEO neighbours, up to ~40 km apart
        a.semi_major_axis = rng.uniform(42114.0, 42214.0);
        a.eccentricity = rng.uniform(0.0, 1e-3);
        a.inclination = rng.uniform(0.0, 0.1);
        b = perturbed(a, rng, 1e-3, 5.0);
        break;
      }
      case 5: {  // MEO, navigation-shell crossings and neighbours
        a.semi_major_axis = rng.uniform(25500.0, 29600.0);
        a.eccentricity = rng.uniform(0.0, 0.02);
        b = rng.uniform_index(2) == 0 ? crossing() : perturbed(a, rng, 1e-3, 3.0);
        break;
      }
      case 6: {  // HEO, e up to 0.8, perigee near 200 km altitude
        a.eccentricity = rng.uniform(0.3, 0.8);
        a.semi_major_axis = rng.uniform(6560.0, 6650.0) / (1.0 - a.eccentricity);
        b = perturbed(a, rng, 1e-3, 3.0);
        break;
      }
      default: {  // LEO, nearly head on, windows of many minutes
        a.semi_major_axis = rng.uniform(6800.0, 7500.0);
        a.eccentricity = rng.uniform(0.0, 0.01);
        const double t_star = rng.uniform(c.t_min, c.t_max);
        const double angle = kPi - rng.uniform(0.0, 0.5);
        b = testutil::make_late_crosser(a, t_star, angle, rng.uniform(-5.0, 5.0), 1)
                .elements;
        break;
      }
    }
    c.sats = {{0, a}, {1, b}};
    const double edge = rng.uniform(0.0, 60.0);
    switch (rng.uniform_index(3)) {
      case 0: c.t_sample = c.t_min + edge; break;
      case 1: c.t_sample = c.t_max - edge; break;
      default: c.t_sample = rng.uniform(c.t_min, c.t_max); break;
    }

    // The bound holds wherever it is evaluated, it is the first-order term
    // alone where the tidal term does not apply, and where the reach test
    // rejects, the whole range stays above the threshold.
    const WindowScan scan = scan_search_window(c);
    EXPECT_GE(scan.min_distance, scan.bound) << "case " << k;
    EXPECT_GE(scan.bound, scan.first_order) << "case " << k;
    if (!scan.tidal_applies) {
      ++first_order_only;
      EXPECT_EQ(scan.bound, scan.first_order) << "case " << k;
    }
    if (!reach_rejects(c)) {
      ++searched;
      continue;
    }
    ++skipped;
    ++regime_skips[regime];
    if (scan.first_order <= c.threshold + kReachBoundMarginKm) ++tidal_skips;
    if (c.t_sample - c.t_min < 60.0 || c.t_max - c.t_sample < 60.0) ++clamped_skips;
    EXPECT_GT(scan.min_distance, c.threshold)
        << "case " << k << " t_s " << c.t_sample << " cell " << c.cell_size;
  }
  // Both outcomes, clamped windows, skips only the tidal term makes and
  // windows past its reach are all exercised, and every regime with short
  // windows skips some pairs.
  EXPECT_GT(skipped, 300);
  EXPECT_GT(searched, 80);
  EXPECT_GT(clamped_skips, 100);
  EXPECT_GT(tidal_skips, 50);
  EXPECT_GT(first_order_only, 20);
  for (int regime = 0; regime < kLongWindows; ++regime) {
    EXPECT_GT(regime_skips[regime], 0) << "regime " << regime;
  }
}

TEST(ReachBound, TidalTermRejectsAMissTheFirstOrderKeeps) {
  // A crossing that misses by d + 3 km at the sample, searched over about
  // +-36 s: the first-order term's slack, A tau^2 / 2 ~ 11 km, keeps the
  // pair; the gravity gradient's, under 1 km, rejects it.
  Rng rng(0x71DA1);
  ReachCase c;
  c.threshold = 5.0;
  c.t_min = 0.0;
  c.t_max = 3600.0;
  c.t_sample = 1800.0;
  const KeplerElements a{6900.0, 0.0, 0.9, 1.0, 0.0, 0.5};
  c.sats = {{0, a}, testutil::make_interceptor(a, c.t_sample, c.threshold + 3.0, rng, 1)};
  // The cell size that gives the slower object a 36 s search radius.
  const ContourKeplerSolver solver;
  const TwoBodyPropagator prop(c.sats, solver);
  c.cell_size = 18.0 * std::min(prop.state(0, c.t_sample).velocity.norm(),
                                prop.state(1, c.t_sample).velocity.norm());

  const WindowScan scan = scan_search_window(c);
  EXPECT_GT(scan.min_distance, c.threshold + 2.9);
  EXPECT_LT(scan.first_order, c.threshold);
  EXPECT_GT(scan.bound, c.threshold + 2.0);
  EXPECT_LE(scan.bound, scan.min_distance);
  EXPECT_TRUE(reach_rejects(c));
}

TEST(ReachBound, PlantedSubThresholdEncountersAreNeverSkipped) {
  Rng rng(0x91A7);
  for (int k = 0; k < 200; ++k) {
    ReachCase c;
    c.cell_size = rng.uniform(5.0, 150.0);
    c.threshold = rng.uniform(0.5, 20.0);
    c.t_min = 0.0;
    c.t_max = 3600.0;
    KeplerElements a;
    a.semi_major_axis = rng.uniform(6700.0, 20000.0);
    a.eccentricity = rng.uniform(0.0, 1.0 - 6600.0 / a.semi_major_axis);
    a.inclination = rng.uniform(0.1, kPi - 0.1);
    a.raan = rng.uniform(0.0, kTwoPi);
    a.arg_perigee = rng.uniform(0.0, kTwoPi);
    a.mean_anomaly = rng.uniform(0.0, kTwoPi);
    // A crossing within 0.9 d at t_star, sampled anywhere in the window.
    const double t_star = rng.uniform(c.t_min, c.t_max);
    const Satellite b = testutil::make_interceptor(
        a, t_star, rng.uniform(-0.9, 0.9) * c.threshold, rng, 1);
    c.sats = {{0, a}, {1, b.elements}};
    const ContourKeplerSolver solver;
    const TwoBodyPropagator prop(c.sats, solver);
    ASSERT_LE(prop.distance(0, 1, t_star), c.threshold);
    const double radius = grid_search_radius(
        c.cell_size, std::min(prop.state(0, t_star).velocity.norm(),
                              prop.state(1, t_star).velocity.norm()));
    c.t_sample = std::clamp(t_star + rng.uniform(-0.9, 0.9) * radius, c.t_min, c.t_max);
    EXPECT_FALSE(reach_rejects(c)) << "case " << k;
  }
}

TEST(ReachBound, GridScreenSkipsOnlyUnderTwoBody) {
  // A shell with planted crossings. Under two-body the front end rejects
  // most pairs that pass the prefilter as out of reach; the j2 propagator
  // keeps the default bound, so it rejects none. Either way every
  // candidate emitted is searched.
  Rng rng(0x12B);
  std::vector<Satellite> sats;
  for (std::uint32_t i = 0; i < 80; ++i) {
    KeplerElements el;
    el.semi_major_axis = 7000.0 + rng.uniform(-5.0, 5.0);
    el.eccentricity = rng.uniform(0.0, 2e-4);
    el.inclination = rng.uniform(0.2, kPi - 0.2);
    el.raan = rng.uniform(0.0, kTwoPi);
    el.arg_perigee = rng.uniform(0.0, kTwoPi);
    el.mean_anomaly = rng.uniform(0.0, kTwoPi);
    sats.push_back({i, el});
  }
  for (std::uint32_t k = 0; k < 10; ++k) {
    sats.push_back(testutil::make_interceptor(sats[k].elements, rng.uniform(200.0, 1600.0),
                                              rng.uniform(-3.0, 3.0), rng,
                                              static_cast<std::uint32_t>(sats.size())));
  }
  ScreeningConfig cfg;
  cfg.threshold_km = 5.0;
  cfg.t_end = 1800.0;

  const ContourKeplerSolver solver;
  const TwoBodyPropagator kepler(sats, solver);
  const J2SecularPropagator j2(sats, solver);
  const std::unique_ptr<Screener> grid = make_screener(Variant::kGrid);

  obs::set_enabled(true);
  obs::reset();
  const ScreeningReport two_body = grid->screen(kepler, cfg);
  const obs::TelemetrySnapshot two_body_counts = obs::snapshot();
  obs::reset();
  const ScreeningReport drifting = grid->screen(j2, cfg);
  const obs::TelemetrySnapshot j2_counts = obs::snapshot();
  obs::set_enabled(false);

  EXPECT_FALSE(two_body.conjunctions.empty());
  EXPECT_EQ(two_body.stats.refinements, two_body.stats.candidates);
  EXPECT_GT(drifting.stats.candidates, 0u);
  EXPECT_EQ(drifting.stats.refinements, drifting.stats.candidates);
  if (obs::compiled()) {
    using obs::Counter;
    EXPECT_GT(two_body_counts.value(Counter::kPairsReachRejected), 0u);
    EXPECT_EQ(two_body_counts.value(Counter::kRefinements), two_body.stats.candidates);
    EXPECT_EQ(j2_counts.value(Counter::kPairsReachRejected), 0u);
    EXPECT_EQ(j2_counts.value(Counter::kRefinements), drifting.stats.candidates);
  }
}

}  // namespace
}  // namespace scod
