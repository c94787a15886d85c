#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/report.hpp"
#include "filters/apogee_perigee.hpp"
#include "filters/coplanarity.hpp"
#include "filters/dense_scan.hpp"
#include "filters/filter_chain.hpp"
#include "filters/time_windows.hpp"
#include "orbit/anomaly.hpp"
#include "orbit/frames.hpp"
#include "orbit/geometry.hpp"
#include "parallel/thread_pool.hpp"
#include "pca/brent.hpp"
#include "population/generator.hpp"
#include "propagation/kepler_solver.hpp"
#include "scenario_helpers.hpp"
#include "propagation/two_body.hpp"
#include "util/constants.hpp"
#include "util/rng.hpp"
#include "verify/adversarial.hpp"

namespace scod {
namespace {

KeplerElements circular(double radius, double inc = 0.0, double raan = 0.0) {
  return {radius, 0.0001, inc, raan, 0.0, 0.0};
}

TEST(ApogeePerigeeFilter, SeparatedBandsExcluded) {
  // Orbits at 7000 and 7100 km: a 100 km radial gap can never close to 2 km.
  const FilterOrbit low(circular(7000.0)), high(circular(7100.0));
  EXPECT_FALSE(apogee_perigee_overlap(low, high, 2.0));
  EXPECT_NEAR(radial_band_gap(low, high), 98.6, 0.1);
}

TEST(ApogeePerigeeFilter, OverlappingBandsSurvive) {
  EXPECT_TRUE(apogee_perigee_overlap(FilterOrbit(circular(7000.0)),
                                     FilterOrbit(circular(7001.0)), 2.0));
  // Eccentric orbit sweeping across the other's radius.
  const KeplerElements ecc{7500.0, 0.1, 0.5, 0.0, 0.0, 0.0};  // 6750..8250 km
  const FilterOrbit eccentric(ecc), circle(circular(7000.0));
  EXPECT_TRUE(apogee_perigee_overlap(eccentric, circle, 2.0));
  EXPECT_LT(radial_band_gap(eccentric, circle), 0.0);
}

TEST(ApogeePerigeeFilter, ThresholdPaddingMatters) {
  const KeplerElements a = circular(7000.0);
  const KeplerElements b = circular(7003.0);
  // Gap ~ 1.6 km (the 0.0001 eccentricities widen both bands slightly).
  EXPECT_TRUE(apogee_perigee_overlap(FilterOrbit(a), FilterOrbit(b), 2.0));
  EXPECT_FALSE(apogee_perigee_overlap(FilterOrbit(a), FilterOrbit(b), 1.0));
}

TEST(ApogeePerigeeFilter, IsSymmetric) {
  const KeplerElements a{7500.0, 0.05, 1.0, 0.0, 0.0, 0.0};
  const KeplerElements b{7800.0, 0.02, 0.5, 1.0, 2.0, 3.0};
  const FilterOrbit fa(a), fb(b);
  EXPECT_EQ(apogee_perigee_overlap(fa, fb, 2.0), apogee_perigee_overlap(fb, fa, 2.0));
  EXPECT_DOUBLE_EQ(radial_band_gap(fa, fb), radial_band_gap(fb, fa));
}

TEST(Coplanarity, DetectsIdenticalAndTiltedPlanes) {
  const KeplerElements a = circular(7000.0, 0.9, 1.2);
  EXPECT_TRUE(are_coplanar(FilterOrbit(a), FilterOrbit(a)));
  KeplerElements b = a;
  b.inclination += 0.001;
  EXPECT_TRUE(are_coplanar(FilterOrbit(a), FilterOrbit(b)));
  b.inclination = a.inclination + 0.5;
  EXPECT_FALSE(are_coplanar(FilterOrbit(a), FilterOrbit(b)));
}

TEST(Coplanarity, OppositeNormalsAreCoplanar) {
  const KeplerElements a = circular(7000.0, 0.4, 0.3);
  KeplerElements b = a;
  b.inclination = kPi - a.inclination;
  b.raan = a.raan + kPi;
  EXPECT_TRUE(are_coplanar(FilterOrbit(a), FilterOrbit(b)));
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

namespace from_elements {
Vec3 curve_position(const KeplerElements& el, double f);
}  // namespace from_elements

/// The radial gap on the node line, |r_a - r_b|.
double radial_gap(const NodeGap& gap) { return std::abs(gap.a.radius - gap.b.radius); }

/// The true anomaly at which an orbit crosses the node line.
double node_anomaly(const NodeArc& arc) { return std::atan2(arc.sin_f, arc.cos_f); }

TEST(NodeCrossings, PerpendicularEqualCircles) {
  const auto gaps = node_gaps(FilterOrbit(circular(7000.0)),
                              FilterOrbit(circular(7000.0, kPi / 2.0)), 2.0);
  // Equal radii: both nodes have ~zero radial gap.
  EXPECT_LT(radial_gap(gaps[0]), 1.5);
  EXPECT_LT(radial_gap(gaps[1]), 1.5);
  // The two crossings of one orbit are half a revolution apart.
  const double df = std::abs(node_anomaly(gaps[0].a) - node_anomaly(gaps[1].a));
  EXPECT_NEAR(std::min(df, kTwoPi - df), kPi, 1e-6);
}

TEST(NodeCrossings, RadialGapIsMissDistance) {
  const auto gaps = node_gaps(FilterOrbit(circular(7000.0)),
                              FilterOrbit(circular(7080.0, 0.7, 0.4)), 2.0);
  EXPECT_NEAR(radial_gap(gaps[0]), 80.0, 2.5);
  EXPECT_NEAR(radial_gap(gaps[1]), 80.0, 2.5);
}

TEST(NodeCrossings, CrossingPointsLieOnNodeLine) {
  const KeplerElements a{7300.0, 0.05, 0.8, 1.0, 0.5, 0.0};
  const KeplerElements b{7400.0, 0.02, 1.4, 2.0, 1.5, 0.0};
  const auto gaps = node_gaps(FilterOrbit(a), FilterOrbit(b), 2.0);
  const Vec3 k = normal_of(a).cross(normal_of(b)).normalized();
  for (int s = 0; s < 2; ++s) {
    const Vec3 dir = s == 0 ? k : -k;
    const Vec3 pa = from_elements::curve_position(a, node_anomaly(gaps[s].a));
    const Vec3 pb = from_elements::curve_position(b, node_anomaly(gaps[s].b));
    // Positions point along the node direction...
    EXPECT_GT(pa.normalized().dot(dir), 0.999);
    EXPECT_GT(pb.normalized().dot(dir), 0.999);
    // ...at the node radii, so the inter-orbit distance there is the gap.
    EXPECT_NEAR(pa.norm(), gaps[s].a.radius, 1e-6);
    EXPECT_NEAR(pb.norm(), gaps[s].b.radius, 1e-6);
    EXPECT_NEAR(pa.distance(pb), radial_gap(gaps[s]), 1e-6);
  }
}

/// The time windows over the pair's node test, as classify_pair takes them.
std::vector<Interval> time_windows(const KeplerElements& a, const KeplerElements& b,
                                   double t_begin, double t_end, double threshold_km) {
  const FilterOrbit fa(a), fb(b);
  return conjunction_time_windows(fa, fb, node_gaps(fa, fb, threshold_km), t_begin,
                                  t_end);
}

TEST(TimeWindows, ExcludedWhenNodeMissTooLarge) {
  const KeplerElements a = circular(7000.0);
  const KeplerElements b = circular(7100.0, 0.9);  // 100 km node miss
  const auto windows = time_windows(a, b, 0.0, 20000.0, 2.0);
  EXPECT_TRUE(windows.empty());
}

TEST(TimeWindows, ProducedForSynchronizedNodeCrossings) {
  // Equal-radius perpendicular circular orbits, both starting at the node:
  // they reach the intersection line simultaneously every revolution, so
  // the window intersection must be non-empty.
  const KeplerElements a = circular(7000.0);
  const KeplerElements b = circular(7000.0, kPi / 2.0);
  const auto windows = time_windows(a, b, 0.0, 20000.0, 2.0);
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
    ASSERT_FALSE(are_coplanar(FilterOrbit(a), FilterOrbit(b)));

    const std::vector<Satellite> sats{{0, a}, interceptor};
    const TwoBodyPropagator prop(sats, solver);
    DenseScanOptions scan;
    scan.step = 2.0;
    const auto encounters = scan_encounters(prop, 0, 1, 0.0, span, scan);

    const auto windows = time_windows(a, b, 0.0, span, threshold);
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

TEST(TimeWindows, ClippedToTheSpan) {
  // A window that starts before t_begin or ends after t_end is cut at the
  // span's edge, not dropped: the windows over a sub-span are the windows
  // over the whole span intersected with it.
  const FilterOrbit a(circular(7000.0)), b(circular(7000.0, kPi / 2.0));
  const auto gaps = node_gaps(a, b, 2.0);
  const auto whole = conjunction_time_windows(a, b, gaps, 0.0, 20000.0);
  ASSERT_GE(whole.size(), 3u);
  // Cut through the middle of the first and the last window.
  const double lo = 0.5 * (whole.front().lo + whole.front().hi);
  const double hi = 0.5 * (whole.back().lo + whole.back().hi);
  const auto part = conjunction_time_windows(a, b, gaps, lo, hi);
  ASSERT_EQ(part.size(), whole.size());
  for (std::size_t i = 0; i < whole.size(); ++i) {
    EXPECT_EQ(part[i].lo, std::max(whole[i].lo, lo)) << i;
    EXPECT_EQ(part[i].hi, std::min(whole[i].hi, hi)) << i;
  }
  EXPECT_TRUE(conjunction_time_windows(a, b, gaps, lo, lo).empty());
}

TEST(FilterChain, ClassifiesOnePairPerVerdict) {
  const ScreeningConfig config;  // d = 2 km, span [0, 7200] s
  const KeplerElements ellipse{7000.0, 0.01, 0.0, 0.0, 0.0, 0.0};  // 6930..7070 km

  struct Case {
    const char* name;
    KeplerElements a, b;
    PairVerdict verdict;
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
       PairVerdict::kApogeePerigeeReject},
      // Same plane and orientation, radial bands overlapping: the curves
      // stay ~20 km apart everywhere, but a coplanar pair is never
      // rejected by geometry; the refinement decides it.
      {"coplanar, 20 km apart", ellipse, {7020.0, 0.01, 0.0, 0.0, 0.0, 0.0},
       PairVerdict::kCoplanarSurvivor},
      // One circular orbit, two phases: the paths coincide.
      {"coplanar survivor", circular(7000.0), in_phase,
       PairVerdict::kCoplanarSurvivor},
      // Node line along x: the ellipse is at 6930 / 7070 km there, the
      // tilted circle at 7040 km, so both node misses exceed the reach.
      {"node-miss reject", ellipse, circular(7040.0, 0.9),
       PairVerdict::kPathReject},
      // Perpendicular equal circles reach the node a quarter period apart.
      {"window reject", circular(7000.0), out_of_phase,
       PairVerdict::kWindowReject},
      // ... and together when both start at the node.
      {"window survivor", circular(7000.0), circular(7000.0, kPi / 2.0),
       PairVerdict::kWindowSurvivor},
      // Node misses of ~140 km (+x) and ~0 km (-x): one close node is
      // enough to pass the node-miss check.
      {"one-node survivor", ellipse, apogee_meet, PairVerdict::kWindowSurvivor},
  };

  FilterFunnel funnel;
  for (const Case& c : cases) {
    const PairClassification pair =
        classify_pair(FilterOrbit(c.a), FilterOrbit(c.b), config);
    EXPECT_EQ(pair.verdict, c.verdict) << c.name;
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
  EXPECT_EQ(funnel.path_rejects, 1u);
  EXPECT_EQ(funnel.window_rejects, 1u);
  EXPECT_EQ(funnel.coplanar_survivors, 2u);
  EXPECT_EQ(funnel.window_survivors, 2u);
  // Conservation: every pair leaves through exactly one bucket.
  EXPECT_EQ(funnel.pairs_in, funnel.ap_rejects + funnel.path_rejects +
                                 funnel.window_rejects + funnel.survivors());

  ScreeningStats stats;
  funnel.publish(stats);
  EXPECT_EQ(stats.pairs_examined, 7u);
  EXPECT_EQ(stats.filtered_apogee_perigee, 1u);
  EXPECT_EQ(stats.filtered_path, 1u);
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
  EXPECT_DOUBLE_EQ(radial_band_gap(FilterOrbit(a), FilterOrbit(b)), 2.0);
  EXPECT_TRUE(apogee_perigee_overlap(FilterOrbit(a), FilterOrbit(b), 2.0));
  EXPECT_FALSE(apogee_perigee_overlap(FilterOrbit(a), FilterOrbit(b), 1.999));
}

TEST(ApogeePerigeeFilter, NestedBandGapIsMinusTheInnerWidth) {
  // 6750..8250 km encloses 7400..7600 km: the overlap is the inner band.
  const KeplerElements outer{7500.0, 0.1, 0.5, 0.0, 0.0, 0.0};
  const KeplerElements inner{7500.0, 100.0 / 7500.0, 0.2, 0.0, 0.0, 0.0};
  EXPECT_NEAR(radial_band_gap(FilterOrbit(outer), FilterOrbit(inner)), -200.0, 1e-9);
  EXPECT_TRUE(apogee_perigee_overlap(FilterOrbit(outer), FilterOrbit(inner), 0.0));
}

TEST(Coplanarity, ToleranceBoundaryOnInclination) {
  // With equal RAAN the plane angle is the inclination difference.
  const KeplerElements a = circular(7000.0, 0.7, 0.4);
  KeplerElements b = a;
  b.inclination = a.inclination + 0.9 * kCoplanarTolerance;
  EXPECT_TRUE(are_coplanar(FilterOrbit(a), FilterOrbit(b)));
  b.inclination = a.inclination + 1.1 * kCoplanarTolerance;
  EXPECT_FALSE(are_coplanar(FilterOrbit(a), FilterOrbit(b)));
}

TEST(Coplanarity, NodeShiftTiltsOnlyInclinedPlanes) {
  // Equatorial planes coincide whatever their node; inclined ones do not.
  EXPECT_TRUE(are_coplanar(FilterOrbit(circular(7000.0, 0.0, 0.0)),
                           FilterOrbit(circular(7200.0, 0.0, 2.0))));
  EXPECT_FALSE(are_coplanar(FilterOrbit(circular(7000.0, 1.0, 0.0)),
                            FilterOrbit(circular(7000.0, 1.0, 0.5))));
}

TEST(Coplanarity, IsSymmetric) {
  Rng rng(17);
  for (int k = 0; k < 200; ++k) {
    const KeplerElements a = circular(7000.0, rng.uniform(0.0, kPi), rng.uniform(0.0, kTwoPi));
    KeplerElements b = a;
    b.inclination = std::clamp(a.inclination + rng.uniform(-0.05, 0.05), 0.0, kPi);
    b.raan = a.raan + rng.uniform(-0.05, 0.05);
    const FilterOrbit fa(a), fb(b);
    EXPECT_EQ(are_coplanar(fa, fb), are_coplanar(fb, fa)) << k;
  }
}

// ---- FilterOrbit against the elements-based formulas ---------------------
//
// A copy of the filter chain as it read KeplerElements, recomputing every
// per-object quantity (radial band, plane normal, perifocal rotation,
// conic parameters) for each pair. The FilterOrbit-based chain must decide
// and compute exactly as it does.
namespace from_elements {

double radial_band_gap(const KeplerElements& a, const KeplerElements& b) {
  return std::max(perigee_radius(a), perigee_radius(b)) -
         std::min(apogee_radius(a), apogee_radius(b));
}

bool are_coplanar(const KeplerElements& a, const KeplerElements& b) {
  return plane_angle(a, b) < kCoplanarTolerance;
}

Vec3 curve_position(const KeplerElements& el, double f) {
  const Mat3 rotation = perifocal_to_eci(el.inclination, el.raan, el.arg_perigee);
  const double cf = std::cos(f);
  const double sf = std::sin(f);
  const double r = semi_latus_rectum(el) / (1.0 + el.eccentricity * cf);
  return rotation * Vec3{r * cf, r * sf, 0.0};
}

/// True anomaly at which the orbit points along the unit direction k of
/// its plane, through atan2: an independent route to the node radii.
double anomaly_toward(const KeplerElements& el, const Vec3& k) {
  const Mat3 rot = perifocal_to_eci(el.inclination, el.raan, el.arg_perigee);
  const Vec3 u = rot.transposed() * k;
  return wrap_two_pi(std::atan2(u.y, u.x));
}

/// Half-width w of the node arc that can hold an approach within `reach`.
double arc_half_width(const KeplerElements& a, const KeplerElements& b, double reach) {
  const double sin_angle = normal_of(a).cross(normal_of(b)).norm();
  const double r_lo = std::max(perigee_radius(a), perigee_radius(b)) - reach;
  return r_lo > 0.0
             ? std::min(kPi, std::asin(std::min(1.0, reach / (r_lo * sin_angle))) +
                                 2.0 * std::asin(std::min(1.0, 0.5 * reach / r_lo)))
             : kPi;
}

std::array<NodeGap, 2> node_gaps(const KeplerElements& a, const KeplerElements& b,
                                 double reach) {
  const Vec3 cross = normal_of(a).cross(normal_of(b));
  const Vec3 k = cross / cross.norm();
  const double w = arc_half_width(a, b, reach);
  const double sin_w = w < 0.5 * kPi ? std::sin(w) : 1.0;
  const double cos_w = std::cos(w);
  std::array<NodeGap, 2> gaps;
  const auto add = [&](const KeplerElements& el, NodeArc NodeGap::*arc) {
    const Mat3 rot = perifocal_to_eci(el.inclination, el.raan, el.arg_perigee);
    const Vec3 u = rot.transposed() * k;
    const double inv = 1.0 / std::sqrt(u.x * u.x + u.y * u.y);
    const double p = semi_latus_rectum(el);
    const double h = std::sqrt(kMuEarth * p);
    const double e = el.eccentricity;
    for (int s = 0; s < 2; ++s) {
      NodeArc& node = gaps[s].*arc;
      node.cos_f = (s == 0 ? u.x : -u.x) * inv;
      node.sin_f = (s == 0 ? u.y : -u.y) * inv;
      const double sin_max =
          std::min(1.0, std::abs(node.sin_f) + std::abs(node.cos_f) * sin_w);
      const double cos_min = std::max(
          -1.0, std::min(node.cos_f * cos_w, node.cos_f) - std::abs(node.sin_f) * sin_w);
      const double q = 1.0 + e * cos_min;
      const double slope = p * e * sin_max / (q * q);
      node.radius = p / (1.0 + e * node.cos_f);
      const double r_max = node.radius + w * slope;
      node.half_time = w * r_max * r_max / h;
      gaps[s].bound += w * slope;
    }
  };
  add(a, &NodeGap::a);
  add(b, &NodeGap::b);
  for (NodeGap& gap : gaps) gap.bound += reach;
  return gaps;
}

std::vector<Interval> conjunction_time_windows(const KeplerElements& a,
                                               const KeplerElements& b, double t_begin,
                                               double t_end, double threshold_km) {
  const auto crossing_windows = [&](const KeplerElements& el, const NodeArc& node) {
    std::vector<Interval> out;
    const double n = mean_motion(el);
    const double period = kTwoPi / n;
    const double half = node.half_time;
    const double m_node =
        true_to_mean(std::atan2(node.sin_f, node.cos_f), el.eccentricity);
    const double t0 = wrap_two_pi(m_node - el.mean_anomaly) / n;
    const double j_start = std::ceil((t_begin - half - t0) / period);
    for (double t = t0 + j_start * period; t - half <= t_end; t += period) {
      out.push_back({t - half, t + half});
    }
    return merge_intervals(std::move(out));
  };

  std::vector<Interval> result;
  for (const NodeGap& gap : node_gaps(a, b, threshold_km)) {
    if (!gap.open()) continue;
    const std::vector<Interval> xs = crossing_windows(a, gap.a);
    const std::vector<Interval> ys = crossing_windows(b, gap.b);
    std::size_t i = 0, j = 0;
    while (i < xs.size() && j < ys.size()) {
      const double lo = std::max(xs[i].lo, ys[j].lo);
      const double hi = std::min(xs[i].hi, ys[j].hi);
      if (lo <= hi) result.push_back({lo, hi});
      if (xs[i].hi < ys[j].hi) {
        ++i;
      } else {
        ++j;
      }
    }
  }
  for (Interval& iv : result) {
    iv.lo = std::max(iv.lo, t_begin);
    iv.hi = std::min(iv.hi, t_end);
  }
  std::erase_if(result, [](const Interval& iv) { return !(iv.lo < iv.hi); });
  return merge_intervals(std::move(result));
}

PairClassification classify_pair(const KeplerElements& a, const KeplerElements& b,
                                 const ScreeningConfig& config) {
  PairClassification out;
  const double d = config.threshold_km;
  if (radial_band_gap(a, b) > d) return out;
  if (are_coplanar(a, b)) {
    out.verdict = PairVerdict::kCoplanarSurvivor;
    return out;
  }
  const std::array<NodeGap, 2> gaps = node_gaps(a, b, d);
  if (!gaps[0].open() && !gaps[1].open()) {
    out.verdict = PairVerdict::kPathReject;
    return out;
  }
  out.windows = conjunction_time_windows(a, b, config.t_begin, config.t_end, d);
  out.verdict = out.windows.empty() ? PairVerdict::kWindowReject
                                    : PairVerdict::kWindowSurvivor;
  return out;
}

}  // namespace from_elements

/// Randomized pairs from four regimes: planes crossing at any angle,
/// eccentric orbits sweeping across each other's radii, planes within a
/// few percent of kCoplanarTolerance, and radially disjoint bands.
std::vector<std::pair<KeplerElements, KeplerElements>> regime_pairs(
    std::size_t per_regime) {
  Rng rng(0xF117E2);
  const auto random_orbit = [&](double a, double e) {
    return KeplerElements{a,
                          e,
                          rng.uniform(0.0, kPi),
                          rng.uniform(0.0, kTwoPi),
                          rng.uniform(0.0, kTwoPi),
                          rng.uniform(0.0, kTwoPi)};
  };
  std::vector<std::pair<KeplerElements, KeplerElements>> pairs;
  for (std::size_t k = 0; k < per_regime; ++k) {
    // Crossing: near-circular orbits whose bands overlap.
    const double r = rng.uniform(6800.0, 7600.0);
    pairs.emplace_back(random_orbit(r, rng.uniform(0.0, 2e-3)),
                       random_orbit(r + rng.uniform(-3.0, 3.0), rng.uniform(0.0, 2e-3)));
    // Eccentric: one orbit sweeps across the other's radius.
    pairs.emplace_back(random_orbit(rng.uniform(7500.0, 9000.0), rng.uniform(0.05, 0.3)),
                       random_orbit(rng.uniform(6900.0, 7800.0), rng.uniform(0.0, 0.05)));
    // Near-coplanar: the second plane tilted by 0.9-1.1 of the tolerance
    // about the first's line of nodes, with nearly equal a and e.
    KeplerElements base =
        random_orbit(rng.uniform(6900.0, 7400.0), rng.uniform(0.0, 0.02));
    base.inclination = rng.uniform(0.1, kPi - 0.1);
    KeplerElements tilted = base;
    tilted.inclination += rng.uniform(0.9, 1.1) * kCoplanarTolerance;
    tilted.semi_major_axis += rng.uniform(-2.0, 2.0);
    tilted.eccentricity += rng.uniform(0.0, 1e-3);
    tilted.arg_perigee = rng.uniform(0.0, kTwoPi);
    tilted.mean_anomaly = rng.uniform(0.0, kTwoPi);
    pairs.emplace_back(base, tilted);
    // Radially disjoint: bands at least 20 km apart.
    const double low = rng.uniform(6800.0, 7400.0);
    pairs.emplace_back(random_orbit(low, 1e-4),
                       random_orbit(low + rng.uniform(20.0, 400.0), 1e-4));
  }
  return pairs;
}

TEST(FilterOrbit, ChainMatchesElementsFormulasBitForBit) {
  ScreeningConfig config;
  config.threshold_km = 5.0;
  config.t_end = 86400.0;
  const auto pairs = regime_pairs(520);
  ASSERT_GE(pairs.size(), 2000u);

  std::size_t coplanar = 0, gaps_checked = 0;
  std::array<std::size_t, 5> verdicts{};
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    const auto& [ea, eb] = pairs[k];
    const FilterOrbit a(ea), b(eb);
    EXPECT_EQ(radial_band_gap(a, b), from_elements::radial_band_gap(ea, eb)) << k;
    EXPECT_EQ(are_coplanar(a, b), from_elements::are_coplanar(ea, eb)) << k;
    if (!are_coplanar(a, b)) {
      const auto gaps = node_gaps(a, b, config.threshold_km);
      const auto want_gaps = from_elements::node_gaps(ea, eb, config.threshold_km);
      for (int s = 0; s < 2; ++s) {
        for (const NodeArc NodeGap::*arc : {&NodeGap::a, &NodeGap::b}) {
          const NodeArc& got = gaps[s].*arc;
          const NodeArc& want = want_gaps[s].*arc;
          EXPECT_EQ(got.cos_f, want.cos_f) << k;
          EXPECT_EQ(got.sin_f, want.sin_f) << k;
          EXPECT_EQ(got.radius, want.radius) << k;
          EXPECT_EQ(got.half_time, want.half_time) << k;
        }
        EXPECT_EQ(gaps[s].bound, want_gaps[s].bound) << k;
      }
      ++gaps_checked;
    }

    const PairClassification got = classify_pair(a, b, config);
    const PairClassification want = from_elements::classify_pair(ea, eb, config);
    EXPECT_EQ(got.verdict, want.verdict) << k;
    ASSERT_EQ(got.windows.size(), want.windows.size()) << k;
    for (std::size_t w = 0; w < want.windows.size(); ++w) {
      EXPECT_EQ(got.windows[w].lo, want.windows[w].lo) << k;
      EXPECT_EQ(got.windows[w].hi, want.windows[w].hi) << k;
    }
    coplanar += got.verdict == PairVerdict::kCoplanarSurvivor ? 1 : 0;
    ++verdicts[static_cast<std::size_t>(got.verdict)];
  }
  // Every verdict and both branches of the chain were exercised.
  EXPECT_GT(coplanar, 100u);
  EXPECT_GT(gaps_checked, 1000u);
  for (std::size_t v = 0; v < verdicts.size(); ++v) EXPECT_GT(verdicts[v], 0u) << v;
}

TEST(FilterOrbit, NodeMissDecisionMatchesAtTheReachBoundary) {
  // The node test takes the node radii in closed form; they must equal
  // the radii at the atan2-based node anomalies to well under a
  // millimetre, and the verdict must flip exactly at the arc-padded bound.
  // a is circular and b slightly eccentric, so their radial bands overlap;
  // b is scaled so that its first node's gap is bound + delta (the bound
  // moves with b's scale, so the scale is iterated to a fixed point).
  ScreeningConfig config;
  config.threshold_km = 5.0;
  config.t_end = 86400.0;
  const double reach = config.threshold_km;
  Rng rng(0xB0CA);
  std::size_t rejects = 0, passes = 0;
  for (int trial = 0; trial < 200; ++trial) {
    KeplerElements ea{rng.uniform(6900.0, 7500.0), 1e-9, rng.uniform(0.1, kPi - 0.1),
                      rng.uniform(0.0, kTwoPi), rng.uniform(0.0, kTwoPi),
                      rng.uniform(0.0, kTwoPi)};
    KeplerElements eb{ea.semi_major_axis, rng.uniform(0.005, 0.02),
                      rng.uniform(0.1, kPi - 0.1),
                      rng.uniform(0.0, kTwoPi), rng.uniform(0.0, kTwoPi),
                      rng.uniform(0.0, kTwoPi)};
    if (from_elements::are_coplanar(ea, eb)) continue;
    const FilterOrbit a(ea);
    for (const double delta : {-2e-3, -1e-3, -1e-6, 1e-6, 1e-3, 2e-3}) {
      KeplerElements scaled = eb;
      for (int iteration = 0; iteration < 4; ++iteration) {
        const NodeGap gap = node_gaps(a, FilterOrbit(scaled), reach)[0];
        scaled.semi_major_axis *= (gap.a.radius + gap.bound + delta) / gap.b.radius;
      }
      const FilterOrbit b(scaled);
      const auto gaps = node_gaps(a, b, reach);
      const Vec3 k = normal_of(ea).cross(normal_of(scaled)).normalized();
      for (int s = 0; s < 2; ++s) {
        const Vec3 dir = s == 0 ? k : -k;
        EXPECT_NEAR(gaps[s].a.radius,
                    radius_at_true_anomaly(ea, from_elements::anomaly_toward(ea, dir)),
                    1e-6)
            << trial;
        EXPECT_NEAR(
            gaps[s].b.radius,
            radius_at_true_anomaly(scaled, from_elements::anomaly_toward(scaled, dir)),
            1e-6)
            << trial;
      }
      // Node 0 sits delta outside its bound, to well under the deltas.
      const double margin = gaps[0].b.radius - gaps[0].a.radius - gaps[0].bound;
      ASSERT_NEAR(margin, delta, 1e-7) << trial;

      const PairClassification got = classify_pair(a, b, config);
      EXPECT_EQ(got.verdict == PairVerdict::kPathReject,
                !gaps[0].open() && !gaps[1].open())
          << trial << " delta " << delta;
      if (delta < 0.0) {
        EXPECT_NE(got.verdict, PairVerdict::kPathReject) << trial;
      }
      (got.verdict == PairVerdict::kPathReject ? rejects : passes) += 1;
    }
  }
  // Both sides of the bound were exercised.
  EXPECT_GT(rejects, 100u);
  EXPECT_GT(passes, 300u);
}

TEST(NodeTest, KeepsAnEccentricPairWhoseApproachIsOffTheNode) {
  // Objects 12759 and 48314 of generate_population({100000, 1}): planes
  // 0.035 rad apart, e = 0.0043 and 0.71. The radial gap at the nearer
  // node is 6.1 km, more than d = 2 km, but the eccentric orbit's
  // radius changes by ~830 km per radian there, and the orbits pass
  // 1.7 km apart 0.0067 rad from the node: grid reports a 1.73 km
  // conjunction. The node test must not reject the pair.
  const KeplerElements ea{6851.8559723860444, 0.0043251557342097909,
                          3.1163690884230602, 2.0307225102824109,
                          2.9997053372412883, 0.91008383660645809};
  const KeplerElements eb{23292.148991704798, 0.70996584869024948,
                          0.011291244571926897, 2.6284359331112879,
                          5.5765169801375922, 5.970513518336837};
  const FilterOrbit a(ea), b(eb);
  ASSERT_FALSE(are_coplanar(a, b));
  const ScreeningConfig config;  // d = 2 km
  const auto gaps = node_gaps(a, b, config.threshold_km);
  EXPECT_NEAR(std::min(radial_gap(gaps[0]), radial_gap(gaps[1])), 6.14, 0.01);
  EXPECT_TRUE(gaps[0].open() || gaps[1].open());
  EXPECT_NE(classify_pair(a, b, config).verdict, PairVerdict::kPathReject);
}

TEST(NodeTest, HalfTimeBoundsTheArcCrossingTime) {
  // An orbit within w of its node reached or leaves the node line within
  // half_time: the exact times from the node to f_node + w and from
  // f_node - w, taken from the mean anomalies, never exceed the bound.
  Rng rng(0xA4C);
  double worst_ratio = 0.0;
  std::size_t checked = 0;
  for (int trial = 0; trial < 500; ++trial) {
    const double reach = rng.uniform(0.5, 50.0);
    const KeplerElements ea{rng.uniform(6800.0, 7400.0), rng.uniform(0.0, 0.01),
                            rng.uniform(0.1, kPi - 0.1), rng.uniform(0.0, kTwoPi),
                            rng.uniform(0.0, kTwoPi), rng.uniform(0.0, kTwoPi)};
    const KeplerElements eb{rng.uniform(7000.0, 30000.0), rng.uniform(0.0, 0.75),
                            rng.uniform(0.1, kPi - 0.1), rng.uniform(0.0, kTwoPi),
                            rng.uniform(0.0, kTwoPi), rng.uniform(0.0, kTwoPi)};
    if (from_elements::are_coplanar(ea, eb)) continue;
    const double w = from_elements::arc_half_width(ea, eb, reach);
    ASSERT_LT(w, 0.5 * kPi) << trial;
    for (const NodeGap& gap : node_gaps(FilterOrbit(ea), FilterOrbit(eb), reach)) {
      for (const auto& [arc, el] : {std::pair{gap.a, ea}, std::pair{gap.b, eb}}) {
        const double f = node_anomaly(arc);
        const double e = el.eccentricity;
        const double m = true_to_mean(f, e);
        const double ahead = wrap_two_pi(true_to_mean(f + w, e) - m) / mean_motion(el);
        const double behind = wrap_two_pi(m - true_to_mean(f - w, e)) / mean_motion(el);
        EXPECT_LE(ahead, arc.half_time) << trial;
        EXPECT_LE(behind, arc.half_time) << trial;
        worst_ratio = std::max(worst_ratio, arc.half_time / std::max(ahead, behind));
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 1500u);
  // The bound stays close to the exact time (1.05 of it at worst here).
  EXPECT_LT(worst_ratio, 1.5);
}

TEST(NodeTest, CircularOrbitsPadNothingAndCrossTheArcAtTheMeanMotion) {
  // With e = 0 the radius is constant on the arc: the bound is the reach
  // itself, and half_time is the arc half-width over the mean motion.
  Rng rng(0xC1C);
  for (int trial = 0; trial < 100; ++trial) {
    const double reach = rng.uniform(0.5, 50.0);
    const KeplerElements ea{rng.uniform(6800.0, 7400.0), 0.0,
                            rng.uniform(0.1, kPi - 0.1), rng.uniform(0.0, kTwoPi),
                            0.0, rng.uniform(0.0, kTwoPi)};
    const KeplerElements eb{rng.uniform(6800.0, 7400.0), 0.0,
                            rng.uniform(0.1, kPi - 0.1), rng.uniform(0.0, kTwoPi),
                            0.0, rng.uniform(0.0, kTwoPi)};
    if (from_elements::are_coplanar(ea, eb)) continue;
    const double w = from_elements::arc_half_width(ea, eb, reach);
    for (const NodeGap& gap : node_gaps(FilterOrbit(ea), FilterOrbit(eb), reach)) {
      EXPECT_EQ(gap.bound, reach) << trial;
      EXPECT_NEAR(gap.a.radius, ea.semi_major_axis, 1e-9) << trial;
      EXPECT_NEAR(gap.b.radius, eb.semi_major_axis, 1e-9) << trial;
      EXPECT_NEAR(gap.a.half_time * mean_motion(ea), w, 1e-12) << trial;
      EXPECT_NEAR(gap.b.half_time * mean_motion(eb), w, 1e-12) << trial;
    }
  }
}

TEST(TimeWindows, CoverEveryTimeBothOrbitsAreOnTheArc) {
  // Whenever both orbits are within w of an open node at the same time,
  // that time lies inside a returned window: the windows give up nothing
  // of the arc the node test leaves open. Eccentric grazers as in
  // NodeTest.RejectsOnlyPairsTheOracleFindsApart, sampled every second.
  const double d = 2.0;
  const double span = 3000.0;
  const NewtonKeplerSolver solver;
  Rng rng(0xA7C5);
  const auto true_anomaly = [&](const KeplerElements& el, double t) {
    const double m = el.mean_anomaly + mean_motion(el) * t;
    return eccentric_to_true(solver.eccentric_anomaly(m, el.eccentricity),
                             el.eccentricity);
  };
  std::size_t on_arc = 0;
  for (int trial = 0; trial < 100; ++trial) {
    const double plane_angle = rng.uniform(1.05 * kCoplanarTolerance, 0.1);
    const double node_angle = rng.uniform(-0.01, 0.01);
    const KeplerElements ea{rng.uniform(6900.0, 7400.0), rng.uniform(0.0, 0.01),
                            rng.uniform(0.1, kPi - 0.1), rng.uniform(0.0, kTwoPi),
                            rng.uniform(0.0, kTwoPi), rng.uniform(0.0, kTwoPi)};
    const KeplerElements eb =
        verify::make_near_coplanar_grazer(ea, 1500.0, plane_angle, node_angle,
                                          rng.uniform(0.3, 0.75),
                                          rng.uniform(-1.0, 1.0) * d, rng, 1)
            .elements;
    const FilterOrbit a(ea), b(eb);
    ASSERT_FALSE(are_coplanar(a, b)) << trial;
    const double w = from_elements::arc_half_width(ea, eb, d);
    const auto gaps = node_gaps(a, b, d);
    const auto windows = conjunction_time_windows(a, b, gaps, 0.0, span);
    for (double t = 0.0; t <= span; t += 1.0) {
      const double fa = true_anomaly(ea, t);
      const double fb = true_anomaly(eb, t);
      for (const NodeGap& gap : gaps) {
        if (!gap.open()) continue;
        if (std::abs(wrap_pi(fa - node_anomaly(gap.a))) > w ||
            std::abs(wrap_pi(fb - node_anomaly(gap.b))) > w) {
          continue;
        }
        ++on_arc;
        EXPECT_TRUE(std::any_of(windows.begin(), windows.end(),
                                [&](const Interval& iv) { return iv.contains(t); }))
            << trial << " t " << t;
      }
    }
  }
  EXPECT_GT(on_arc, 500u);
}

TEST(NodeTest, RejectsOnlyPairsTheOracleFindsApart) {
  // Property: planes 0.02-0.1 rad apart, one orbit with e in [0.3, 0.75],
  // an approach planted near the node arc at radial offsets around d.
  // Every pair the chain rejects (node test or windows) must have a
  // dense-scan minimum above d, and every minimum within d of a window
  // survivor must lie inside one of its windows.
  ScreeningConfig config;  // d = 2 km
  config.t_end = 3000.0;
  const double d = config.threshold_km;
  const NewtonKeplerSolver solver;
  Rng rng(0x5EED21);
  std::size_t rejected = 0, close = 0, windowed = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const double plane_angle = rng.uniform(1.05 * kCoplanarTolerance, 0.1);
    // Out-of-plane gap at the planted point: 0 to about 0.8 d.
    const double gap = rng.uniform(0.0, 0.8) * d;
    const double node_angle = std::asin(gap / (7000.0 * std::sin(plane_angle))) *
                              (rng.uniform() < 0.5 ? 1.0 : -1.0);
    // Radial offsets within 1.5 d on even trials, within 20 d on odd ones.
    const double offset = rng.uniform(-1.0, 1.0) * d * (trial % 2 == 0 ? 1.5 : 20.0);
    const KeplerElements ea{rng.uniform(6900.0, 7400.0), rng.uniform(0.0, 0.01),
                            rng.uniform(0.1, kPi - 0.1), rng.uniform(0.0, kTwoPi),
                            rng.uniform(0.0, kTwoPi), rng.uniform(0.0, kTwoPi)};
    const KeplerElements eb =
        verify::make_near_coplanar_grazer(ea, 1500.0, plane_angle, node_angle,
                                          rng.uniform(0.3, 0.75), offset, rng, 1)
            .elements;
    const FilterOrbit a(ea), b(eb);
    ASSERT_FALSE(are_coplanar(a, b)) << trial;
    const PairClassification pair = classify_pair(a, b, config);
    const PairVerdict verdict = pair.verdict;

    const TwoBodyPropagator prop(std::vector<Satellite>{{0, ea}, {1, eb}}, solver);
    DenseScanOptions scan;
    scan.step = 1.0;
    double oracle = std::numeric_limits<double>::infinity();
    for (const Encounter& e :
         scan_encounters(prop, 0, 1, config.t_begin, config.t_end, scan)) {
      oracle = std::min(oracle, e.pca);
      if (verdict == PairVerdict::kWindowSurvivor && e.pca <= d) {
        ++windowed;
        EXPECT_TRUE(std::any_of(pair.windows.begin(), pair.windows.end(),
                                [&](const Interval& w) { return w.contains(e.tca); }))
            << trial << " tca " << e.tca << " pca " << e.pca;
      }
    }
    if (oracle <= d) ++close;
    if (verdict == PairVerdict::kPathReject || verdict == PairVerdict::kWindowReject) {
      ++rejected;
      EXPECT_GT(oracle, d) << trial << " plane angle " << plane_angle;
    }
  }
  // Both kinds of pair were generated in numbers.
  EXPECT_GT(rejected, 100u);
  EXPECT_GT(close, 100u);
  EXPECT_GT(windowed, 100u);
}

TEST(FilterOrbit, BuiltOnAPoolEqualsPerObjectConstruction) {
  const auto sats = generate_population({500, 77});
  const NewtonKeplerSolver solver;
  const TwoBodyPropagator propagator(sats, solver);
  ThreadPool one(1), four(4);
  for (ThreadPool* pool : {&one, &four}) {
    const std::vector<FilterOrbit> orbits = build_filter_orbits(propagator, *pool);
    ASSERT_EQ(orbits.size(), sats.size());
    for (std::size_t i = 0; i < sats.size(); ++i) {
      const KeplerElements& el = propagator.elements(i);
      const FilterOrbit& orbit = orbits[i];
      EXPECT_EQ(orbit.elements, el) << i;
      EXPECT_EQ(orbit.perigee, perigee_radius(el)) << i;
      EXPECT_EQ(orbit.apogee, apogee_radius(el)) << i;
      EXPECT_EQ(orbit.normal, normal_of(el)) << i;
      EXPECT_EQ(orbit.p, semi_latus_rectum(el)) << i;
      EXPECT_EQ(orbit.h, std::sqrt(kMuEarth * semi_latus_rectum(el))) << i;
      const Mat3 rotation = perifocal_to_eci(el.inclination, el.raan, el.arg_perigee);
      for (int r = 0; r < 3; ++r) {
        for (int c = 0; c < 3; ++c) EXPECT_EQ(orbit.rotation.m[r][c], rotation.m[r][c]);
      }
    }
  }
}

}  // namespace
}  // namespace scod
