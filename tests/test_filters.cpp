#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/config.hpp"
#include "core/report.hpp"
#include "filters/apogee_perigee.hpp"
#include "filters/coplanarity.hpp"
#include "filters/dense_scan.hpp"
#include "filters/filter_chain.hpp"
#include "filters/orbit_path.hpp"
#include "filters/time_windows.hpp"
#include "orbit/geometry.hpp"
#include "population/generator.hpp"
#include "propagation/kepler_solver.hpp"
#include "scenario_helpers.hpp"
#include "propagation/two_body.hpp"
#include "util/constants.hpp"
#include "util/rng.hpp"

namespace scod {
namespace {

KeplerElements circular(double radius, double inc = 0.0, double raan = 0.0) {
  return {radius, 0.0001, inc, raan, 0.0, 0.0};
}

TEST(ApogeePerigeeFilter, SeparatedBandsExcluded) {
  // Orbits at 7000 and 7100 km: a 100 km radial gap can never close to 2 km.
  EXPECT_FALSE(apogee_perigee_overlap(circular(7000.0), circular(7100.0), 2.0));
  EXPECT_NEAR(radial_band_gap(circular(7000.0), circular(7100.0)), 98.6, 0.1);
}

TEST(ApogeePerigeeFilter, OverlappingBandsSurvive) {
  EXPECT_TRUE(apogee_perigee_overlap(circular(7000.0), circular(7001.0), 2.0));
  // Eccentric orbit sweeping across the other's radius.
  const KeplerElements ecc{7500.0, 0.1, 0.5, 0.0, 0.0, 0.0};  // 6750..8250 km
  EXPECT_TRUE(apogee_perigee_overlap(ecc, circular(7000.0), 2.0));
  EXPECT_LT(radial_band_gap(ecc, circular(7000.0)), 0.0);
}

TEST(ApogeePerigeeFilter, ThresholdPaddingMatters) {
  const KeplerElements a = circular(7000.0);
  const KeplerElements b = circular(7003.0);
  // Gap ~ 1.6 km (the 0.0001 eccentricities widen both bands slightly).
  EXPECT_TRUE(apogee_perigee_overlap(a, b, 2.0));
  EXPECT_FALSE(apogee_perigee_overlap(a, b, 1.0));
}

TEST(ApogeePerigeeFilter, IsSymmetric) {
  const KeplerElements a{7500.0, 0.05, 1.0, 0.0, 0.0, 0.0};
  const KeplerElements b{7800.0, 0.02, 0.5, 1.0, 2.0, 3.0};
  EXPECT_EQ(apogee_perigee_overlap(a, b, 2.0), apogee_perigee_overlap(b, a, 2.0));
  EXPECT_DOUBLE_EQ(radial_band_gap(a, b), radial_band_gap(b, a));
}

TEST(Coplanarity, DetectsIdenticalAndTiltedPlanes) {
  const KeplerElements a = circular(7000.0, 0.9, 1.2);
  EXPECT_TRUE(are_coplanar(a, a));
  KeplerElements b = a;
  b.inclination += 0.001;
  EXPECT_TRUE(are_coplanar(a, b));
  b.inclination = a.inclination + 0.5;
  EXPECT_FALSE(are_coplanar(a, b));
}

TEST(Coplanarity, OppositeNormalsAreCoplanar) {
  const KeplerElements a = circular(7000.0, 0.4, 0.3);
  KeplerElements b = a;
  b.inclination = kPi - a.inclination;
  b.raan = a.raan + kPi;
  EXPECT_TRUE(are_coplanar(a, b));
}

TEST(OrbitPath, ConcentricCoplanarCircles) {
  // Same plane, radii 7000/7050: minimum distance is the radial gap.
  const double d = min_orbit_distance(circular(7000.0), circular(7050.0));
  EXPECT_NEAR(d, 50.0, 1.5);  // near-circular e=1e-4 shifts apsides slightly
}

TEST(OrbitPath, IntersectingPerpendicularCircles) {
  // Equal radii in perpendicular planes intersect: distance ~ 0.
  const double d = min_orbit_distance(circular(7000.0), circular(7000.0, kPi / 2.0));
  EXPECT_LT(d, 2.0);
}

TEST(OrbitPath, EllipseGrazingCircle) {
  // Ellipse with perigee at the circle's radius, same plane.
  KeplerElements ellipse{8000.0, 0.125, 0.0, 0.0, 0.0, 0.0};  // perigee 7000
  const double d = min_orbit_distance(ellipse, circular(7000.0));
  EXPECT_LT(d, 3.0);
}

TEST(OrbitPath, FilterPassesAndRejects) {
  EXPECT_TRUE(orbit_path_overlap(circular(7000.0), circular(7001.0), 2.0));
  EXPECT_FALSE(orbit_path_overlap(circular(7000.0), circular(7100.0), 2.0));
}

TEST(OrbitPath, LowerBoundsTimeDependentDistance) {
  // The MOID must never exceed the distance at any common instant.
  Rng rng(31);
  const NewtonKeplerSolver solver;
  const auto sats = generate_population({20, 900});
  const TwoBodyPropagator prop(sats, solver);
  for (int k = 0; k < 15; ++k) {
    const auto i = rng.uniform_index(sats.size());
    const auto j = rng.uniform_index(sats.size());
    if (i == j) continue;
    const double moid =
        min_orbit_distance(sats[i].elements, sats[j].elements, /*coarse=*/48);
    for (double t = 0.0; t < 5000.0; t += 500.0) {
      EXPECT_LE(moid, prop.distance(i, j, t) + 0.5) << "pair " << i << "," << j;
    }
  }
}

TEST(MergeIntervals, SortsAndMerges) {
  std::vector<Interval> in{{5, 7}, {1, 2}, {6, 9}, {2, 3}};
  const auto merged = merge_intervals(in);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_DOUBLE_EQ(merged[0].lo, 1.0);
  EXPECT_DOUBLE_EQ(merged[0].hi, 3.0);
  EXPECT_DOUBLE_EQ(merged[1].lo, 5.0);
  EXPECT_DOUBLE_EQ(merged[1].hi, 9.0);
  EXPECT_TRUE(merge_intervals({}).empty());
}

TEST(Interval, ContainsAndLength) {
  const Interval iv{2.0, 5.0};
  EXPECT_TRUE(iv.contains(2.0));
  EXPECT_TRUE(iv.contains(5.0));
  EXPECT_FALSE(iv.contains(5.1));
  EXPECT_DOUBLE_EQ(iv.length(), 3.0);
}

TEST(NodeCrossings, PerpendicularEqualCircles) {
  const KeplerElements a = circular(7000.0);
  const KeplerElements b = circular(7000.0, kPi / 2.0);
  const auto crossings = node_crossings(a, b);
  // Equal radii: both nodes have ~zero miss distance.
  EXPECT_LT(crossings[0].miss_distance, 1.5);
  EXPECT_LT(crossings[1].miss_distance, 1.5);
  // The two crossings of one orbit are half a revolution apart.
  const double df = std::abs(crossings[0].true_anomaly_a - crossings[1].true_anomaly_a);
  EXPECT_NEAR(std::min(df, kTwoPi - df), kPi, 1e-6);
}

TEST(NodeCrossings, RadialGapIsMissDistance) {
  const KeplerElements a = circular(7000.0);
  const KeplerElements b = circular(7080.0, 0.7, 0.4);
  const auto crossings = node_crossings(a, b);
  EXPECT_NEAR(crossings[0].miss_distance, 80.0, 2.5);
  EXPECT_NEAR(crossings[1].miss_distance, 80.0, 2.5);
}

TEST(NodeCrossings, CrossingPointsLieOnNodeLine) {
  const KeplerElements a{7300.0, 0.05, 0.8, 1.0, 0.5, 0.0};
  const KeplerElements b{7400.0, 0.02, 1.4, 2.0, 1.5, 0.0};
  const auto crossings = node_crossings(a, b);
  const Vec3 k = normal_of(a).cross(normal_of(b)).normalized();
  for (int s = 0; s < 2; ++s) {
    const Vec3 dir = s == 0 ? k : -k;
    const Vec3 pa = OrbitCurve(a).position(crossings[s].true_anomaly_a);
    const Vec3 pb = OrbitCurve(b).position(crossings[s].true_anomaly_b);
    // Positions point along the node direction...
    EXPECT_GT(pa.normalized().dot(dir), 0.999);
    EXPECT_GT(pb.normalized().dot(dir), 0.999);
    // ...so the inter-orbit distance there is the radial gap.
    EXPECT_NEAR(pa.distance(pb), crossings[s].miss_distance, 1e-6);
  }
}

TEST(TimeWindows, ExcludedWhenNodeMissTooLarge) {
  const KeplerElements a = circular(7000.0);
  const KeplerElements b = circular(7100.0, 0.9);  // 100 km node miss
  const auto windows = conjunction_time_windows(a, b, 0.0, 20000.0, 2.0);
  EXPECT_TRUE(windows.empty());
}

TEST(TimeWindows, ProducedForSynchronizedNodeCrossings) {
  // Equal-radius perpendicular circular orbits, both starting at the node:
  // they reach the intersection line simultaneously every revolution, so
  // the window intersection must be non-empty.
  const KeplerElements a = circular(7000.0);
  const KeplerElements b = circular(7000.0, kPi / 2.0);
  const auto windows = conjunction_time_windows(a, b, 0.0, 20000.0, 2.0);
  EXPECT_FALSE(windows.empty());
  for (const Interval& w : windows) {
    EXPECT_GE(w.lo, 0.0);
    EXPECT_LE(w.hi, 20000.0);
    EXPECT_GT(w.length(), 0.0);
  }
  // Windows recur with the (common) orbital period at the node passages.
  const double period = orbital_period(a);
  for (const Interval& w : windows) {
    const double phase = std::fmod(0.5 * (w.lo + w.hi) + 0.25 * period, period);
    EXPECT_NEAR(std::min(phase, period - phase), 0.25 * period, 60.0);
  }
}

TEST(TimeWindows, ContainSubThresholdMinima) {
  // Property: every dense-scan encounter below the threshold must fall
  // inside some returned window. Encounters are engineered: an interceptor
  // orbit is constructed through the target's position at a chosen time.
  Rng rng(77);
  const NewtonKeplerSolver solver;
  const double threshold = 5.0;
  const double span = 15000.0;
  int checked_minima = 0;

  for (int trial = 0; trial < 25; ++trial) {
    KeplerElements a = circular(rng.uniform(6900.0, 7100.0),
                                rng.uniform(0.1, kPi - 0.1), rng.uniform(0.0, kTwoPi));
    a.mean_anomaly = rng.uniform(0.0, kTwoPi);
    const double t_star = rng.uniform(0.1 * span, 0.9 * span);
    const double offset = rng.uniform(-3.0, 3.0);
    const Satellite interceptor =
        testutil::make_interceptor(a, t_star, offset, rng, 1);
    const KeplerElements& b = interceptor.elements;
    ASSERT_FALSE(are_coplanar(a, b));

    const std::vector<Satellite> sats{{0, a}, interceptor};
    const TwoBodyPropagator prop(sats, solver);
    DenseScanOptions scan;
    scan.step = 2.0;
    const auto encounters = scan_encounters(prop, 0, 1, 0.0, span, scan);

    const auto windows = conjunction_time_windows(a, b, 0.0, span, threshold);
    bool found_engineered = false;
    for (const Encounter& e : encounters) {
      if (e.pca > threshold) continue;
      ++checked_minima;
      if (std::abs(e.tca - t_star) < 30.0) found_engineered = true;
      bool inside = false;
      for (const Interval& w : windows) {
        if (w.contains(e.tca)) inside = true;
      }
      EXPECT_TRUE(inside) << "trial " << trial << " tca=" << e.tca
                          << " pca=" << e.pca;
    }
    EXPECT_TRUE(found_engineered) << "trial " << trial;
  }
  EXPECT_GE(checked_minima, 25);
}

TEST(FilterChain, ClassifiesOnePairPerVerdict) {
  const ScreeningConfig config;  // d = 2 km, pad 0.5 km, span [0, 7200] s
  const KeplerElements ellipse{7000.0, 0.01, 0.0, 0.0, 0.0, 0.0};  // 6930..7070 km

  struct Case {
    const char* name;
    KeplerElements a, b;
    PairVerdict verdict;
    bool coplanar;
  };
  KeplerElements in_phase = circular(7000.0);
  in_phase.mean_anomaly = 1.0;
  KeplerElements out_of_phase = circular(7000.0, kPi / 2.0);
  out_of_phase.mean_anomaly = kPi / 2.0;
  // Tilted circle at the ellipse's apogee radius, phased to reach the -x
  // node together with the ellipse's apogee.
  KeplerElements apogee_meet = circular(7070.0, kPi / 2.0);
  apogee_meet.mean_anomaly =
      kPi - mean_motion(apogee_meet) * 0.5 * orbital_period(ellipse);
  const Case cases[] = {
      // 100 km radial gap.
      {"ap reject", circular(7000.0), circular(7100.0),
       PairVerdict::kApogeePerigeeReject, false},
      // Same plane and orientation, radial bands overlapping, but the
      // curves stay ~20 km apart everywhere.
      {"coplanar path reject", ellipse, {7020.0, 0.01, 0.0, 0.0, 0.0, 0.0},
       PairVerdict::kPathReject, true},
      // One circular orbit, two phases: the paths coincide.
      {"coplanar survivor", circular(7000.0), in_phase,
       PairVerdict::kCoplanarSurvivor, true},
      // Node line along x: the ellipse is at 6930 / 7070 km there, the
      // tilted circle at 7040 km, so both node misses exceed the reach.
      {"node-miss reject", ellipse, circular(7040.0, 0.9),
       PairVerdict::kPathReject, false},
      // Perpendicular equal circles reach the node a quarter period apart.
      {"window reject", circular(7000.0), out_of_phase,
       PairVerdict::kWindowReject, false},
      // ... and together when both start at the node.
      {"window survivor", circular(7000.0), circular(7000.0, kPi / 2.0),
       PairVerdict::kWindowSurvivor, false},
      // Node misses of ~140 km (+x) and ~0 km (-x): one close node is
      // enough to pass the node-miss check.
      {"one-node survivor", ellipse, apogee_meet, PairVerdict::kWindowSurvivor,
       false},
  };

  FilterFunnel funnel;
  for (const Case& c : cases) {
    const PairClassification pair = classify_pair(c.a, c.b, config);
    EXPECT_EQ(pair.verdict, c.verdict) << c.name;
    EXPECT_EQ(pair.coplanar, c.coplanar) << c.name;
    EXPECT_EQ(pair.windows.empty(), c.verdict != PairVerdict::kWindowSurvivor)
        << c.name;
    for (const Interval& w : pair.windows) {
      EXPECT_GE(w.lo, config.t_begin) << c.name;
      EXPECT_LE(w.hi, config.t_end) << c.name;
    }
    funnel.add(pair);
  }

  EXPECT_EQ(funnel.pairs_in, 7u);
  EXPECT_EQ(funnel.ap_rejects, 1u);
  EXPECT_EQ(funnel.path_rejects, 2u);
  EXPECT_EQ(funnel.window_rejects, 1u);
  EXPECT_EQ(funnel.coplanar, 2u);
  EXPECT_EQ(funnel.coplanar_survivors, 1u);
  EXPECT_EQ(funnel.window_survivors, 2u);
  // Conservation: every pair leaves through exactly one bucket.
  EXPECT_EQ(funnel.pairs_in, funnel.ap_rejects + funnel.path_rejects +
                                 funnel.window_rejects + funnel.survivors());

  ScreeningStats stats;
  funnel.publish(stats);
  EXPECT_EQ(stats.pairs_examined, 7u);
  EXPECT_EQ(stats.filtered_apogee_perigee, 1u);
  EXPECT_EQ(stats.filtered_path, 2u);
  EXPECT_EQ(stats.filtered_windows, 1u);
  EXPECT_EQ(stats.coplanar_pairs, 2u);
}

TEST(DenseScan, FindsAllMinimaOfTwoOrbitSystem) {
  const NewtonKeplerSolver solver;
  const std::vector<Satellite> sats{{0, circular(7000.0)},
                                    {1, circular(7000.0, kPi / 2.0)}};
  const TwoBodyPropagator prop(sats, solver);
  DenseScanOptions scan;
  scan.step = 5.0;
  const auto encounters = scan_encounters(prop, 0, 1, 0.0, 20000.0, scan);

  // Equal-radius perpendicular circular orbits with equal periods meet the
  // node twice per revolution; period ~ 5828 s, span covers ~3.4 revs ->
  // expect ~6-8 local minima.
  EXPECT_GE(encounters.size(), 5u);
  EXPECT_LE(encounters.size(), 10u);
  // Minima alternate: every reported TCA must be a genuine local minimum.
  for (const Encounter& e : encounters) {
    if (e.tca < 10.0 || e.tca > 19990.0) continue;  // skip span edges
    const double d0 = prop.distance(0, 1, e.tca);
    EXPECT_LE(d0, prop.distance(0, 1, e.tca - 5.0) + 1e-9);
    EXPECT_LE(d0, prop.distance(0, 1, e.tca + 5.0) + 1e-9);
  }
}

TEST(DenseScan, EmptySpanReturnsNothing) {
  const NewtonKeplerSolver solver;
  const std::vector<Satellite> sats{{0, circular(7000.0)},
                                    {1, circular(7005.0, 1.0)}};
  const TwoBodyPropagator prop(sats, solver);
  EXPECT_TRUE(scan_encounters(prop, 0, 1, 100.0, 100.0, {}).empty());
  EXPECT_TRUE(scan_encounters(prop, 0, 1, 100.0, 50.0, {}).empty());
}

TEST(DenseScan, RejectsMoreThan2To24Samples) {
  // The sample count is checked in floating point before it becomes an
  // integer: one sample over the limit, a span far beyond it, and a zero
  // step are all refused before any distance is evaluated.
  const NewtonKeplerSolver solver;
  const std::vector<Satellite> sats{{0, circular(7000.0)},
                                    {1, circular(7005.0, 1.0)}};
  const TwoBodyPropagator prop(sats, solver);
  DenseScanOptions scan;
  scan.step = 16.0;
  EXPECT_EQ(dense_scan_samples(kMaxDenseScanSamples * scan.step, scan.step),
            kMaxDenseScanSamples + 1.0);
  EXPECT_THROW(scan_encounters(prop, 0, 1, 0.0, kMaxDenseScanSamples * scan.step, scan),
               std::invalid_argument);
  EXPECT_THROW(scan_encounters(prop, 0, 1, 0.0, 1e300, scan), std::invalid_argument);
  scan.step = 0.0;
  EXPECT_THROW(scan_encounters(prop, 0, 1, 0.0, 100.0, scan), std::invalid_argument);
}

TEST(DenseScan, RefineBelowSkipsShallowMinima) {
  const NewtonKeplerSolver solver;
  const std::vector<Satellite> sats{{0, circular(7000.0)},
                                    {1, circular(7050.0, kPi / 2.0)}};
  const TwoBodyPropagator prop(sats, solver);
  DenseScanOptions strict;
  strict.step = 5.0;
  strict.refine_below = 10.0;  // all minima are ~50 km -> nothing refined
  EXPECT_TRUE(scan_encounters(prop, 0, 1, 0.0, 12000.0, strict).empty());
}


TEST(MergeIntervals, NestedAndTouchingIntervalsCollapse) {
  const auto merged =
      merge_intervals({{12.5, 13.0}, {10.0, 12.0}, {2.0, 3.0}, {0.0, 10.0}});
  ASSERT_EQ(merged.size(), 2u);
  // {2, 3} lies inside {0, 10}; {10, 12} touches it and joins.
  EXPECT_DOUBLE_EQ(merged[0].lo, 0.0);
  EXPECT_DOUBLE_EQ(merged[0].hi, 12.0);
  EXPECT_DOUBLE_EQ(merged[1].lo, 12.5);
  EXPECT_DOUBLE_EQ(merged[1].hi, 13.0);
}

TEST(MergeIntervals, DisjointInputIsOnlySorted) {
  const auto merged = merge_intervals({{7.0, 8.0}, {-3.0, -2.0}, {1.0, 1.0}});
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_DOUBLE_EQ(merged[0].lo, -3.0);
  EXPECT_DOUBLE_EQ(merged[1].lo, 1.0);
  EXPECT_DOUBLE_EQ(merged[1].length(), 0.0);
  EXPECT_DOUBLE_EQ(merged[2].hi, 8.0);
  for (std::size_t i = 1; i < merged.size(); ++i) {
    EXPECT_LT(merged[i - 1].hi, merged[i].lo);
  }
}

TEST(ApogeePerigeeFilter, GapEqualToThresholdSurvives) {
  // Exactly circular orbits 2 km apart: the filter keeps pairs whose gap
  // is at most the threshold.
  const KeplerElements a{7000.0, 0.0, 0.3, 0.0, 0.0, 0.0};
  const KeplerElements b{7002.0, 0.0, 1.3, 0.5, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(radial_band_gap(a, b), 2.0);
  EXPECT_TRUE(apogee_perigee_overlap(a, b, 2.0));
  EXPECT_FALSE(apogee_perigee_overlap(a, b, 1.999));
}

TEST(ApogeePerigeeFilter, NestedBandGapIsMinusTheInnerWidth) {
  // 6750..8250 km encloses 7400..7600 km: the overlap is the inner band.
  const KeplerElements outer{7500.0, 0.1, 0.5, 0.0, 0.0, 0.0};
  const KeplerElements inner{7500.0, 100.0 / 7500.0, 0.2, 0.0, 0.0, 0.0};
  EXPECT_NEAR(radial_band_gap(outer, inner), -200.0, 1e-9);
  EXPECT_TRUE(apogee_perigee_overlap(outer, inner, 0.0));
}

TEST(Coplanarity, ToleranceBoundaryOnInclination) {
  // With equal RAAN the plane angle is the inclination difference.
  const KeplerElements a = circular(7000.0, 0.7, 0.4);
  KeplerElements b = a;
  b.inclination = a.inclination + 0.9 * kCoplanarTolerance;
  EXPECT_TRUE(are_coplanar(a, b));
  b.inclination = a.inclination + 1.1 * kCoplanarTolerance;
  EXPECT_FALSE(are_coplanar(a, b));
}

TEST(Coplanarity, NodeShiftTiltsOnlyInclinedPlanes) {
  // Equatorial planes coincide whatever their node; inclined ones do not.
  EXPECT_TRUE(are_coplanar(circular(7000.0, 0.0, 0.0), circular(7200.0, 0.0, 2.0)));
  EXPECT_FALSE(are_coplanar(circular(7000.0, 1.0, 0.0), circular(7000.0, 1.0, 0.5)));
}

TEST(Coplanarity, IsSymmetric) {
  Rng rng(17);
  for (int k = 0; k < 200; ++k) {
    const KeplerElements a = circular(7000.0, rng.uniform(0.0, kPi), rng.uniform(0.0, kTwoPi));
    KeplerElements b = a;
    b.inclination = std::clamp(a.inclination + rng.uniform(-0.05, 0.05), 0.0, kPi);
    b.raan = a.raan + rng.uniform(-0.05, 0.05);
    EXPECT_EQ(are_coplanar(a, b), are_coplanar(b, a)) << k;
  }
}

}  // namespace
}  // namespace scod
