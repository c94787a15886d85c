#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/screen.hpp"
#include "filters/dense_scan.hpp"
#include "obs/telemetry.hpp"
#include "orbit/geometry.hpp"
#include "parallel/thread_pool.hpp"
#include "pca/pair_evaluator.hpp"
#include "population/generator.hpp"
#include "propagation/contour_solver.hpp"
#include "propagation/ephemeris.hpp"
#include "propagation/j2_secular.hpp"
#include "propagation/tle_secular.hpp"
#include "propagation/two_body.hpp"
#include "scenario_helpers.hpp"
#include "service/screening_service.hpp"
#include "spatial/cell_list.hpp"
#include "spatial/grid_hash_set.hpp"
#include "util/constants.hpp"
#include "util/rng.hpp"

namespace scod {
namespace {

/// A dense spherical shell of near-circular orbits: radial band so narrow
/// that node misses are frequently below the screening threshold, giving a
/// small population with a meaningful number of true conjunctions.
std::vector<Satellite> dense_shell(std::size_t n, std::uint64_t seed,
                                   double r0 = 7000.0, double band = 10.0) {
  Rng rng(seed);
  std::vector<Satellite> sats;
  sats.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    KeplerElements el;
    el.semi_major_axis = r0 + rng.uniform(-band / 2.0, band / 2.0);
    el.eccentricity = rng.uniform(0.0, 2e-4);
    el.inclination = rng.uniform(0.2, kPi - 0.2);
    el.raan = rng.uniform(0.0, kTwoPi);
    el.arg_perigee = rng.uniform(0.0, kTwoPi);
    el.mean_anomaly = rng.uniform(0.0, kTwoPi);
    sats.push_back({static_cast<std::uint32_t>(i), el});
  }
  return sats;
}

struct OracleConjunction {
  std::uint32_t sat_a, sat_b;
  double tca, pca;
};

/// Ground truth: exhaustive dense-scan over every pair.
std::vector<OracleConjunction> oracle(const std::vector<Satellite>& sats,
                                      double t_begin, double t_end,
                                      double threshold) {
  const ContourKeplerSolver solver;
  const TwoBodyPropagator prop(sats, solver);
  DenseScanOptions scan;
  scan.step = 4.0;
  std::vector<OracleConjunction> out;
  for (std::uint32_t i = 0; i + 1 < sats.size(); ++i) {
    for (std::uint32_t j = i + 1; j < sats.size(); ++j) {
      for (const Encounter& e : scan_encounters(prop, i, j, t_begin, t_end, scan)) {
        if (e.pca <= threshold) out.push_back({i, j, e.tca, e.pca});
      }
    }
  }
  return out;
}

bool report_contains(const ScreeningReport& report, std::uint32_t a, std::uint32_t b,
                     double tca, double tca_tol) {
  for (const Conjunction& c : report.conjunctions) {
    if (c.sat_a == a && c.sat_b == b && std::abs(c.tca - tca) <= tca_tol) return true;
  }
  return false;
}

class ScreenerAccuracy : public testing::Test {
 protected:
  static constexpr double kThreshold = 5.0;
  static constexpr double kSpan = 10000.0;

  static void SetUpTestSuite() {
    // A dense shell provides realistic background traffic; a dozen
    // engineered interceptors guarantee genuine conjunctions at known
    // times (random 70-object populations rarely align by chance).
    auto sats = dense_shell(60, 0xBEEF);
    Rng rng(0xD1CE);
    for (std::uint32_t k = 0; k < 12; ++k) {
      const auto target = rng.uniform_index(sats.size());
      const double t_star = rng.uniform(0.1 * kSpan, 0.9 * kSpan);
      const double offset = rng.uniform(-3.5, 3.5);
      sats.push_back(testutil::make_interceptor(
          sats[target].elements, t_star, offset, rng,
          static_cast<std::uint32_t>(60 + k)));
    }
    sats_ = new std::vector<Satellite>(std::move(sats));
    truth_ = new std::vector<OracleConjunction>(
        oracle(*sats_, 0.0, kSpan, kThreshold * 1.2));
  }

  static void TearDownTestSuite() {
    delete sats_;
    delete truth_;
    sats_ = nullptr;
    truth_ = nullptr;
  }

  static ScreeningConfig config() {
    ScreeningConfig cfg;
    cfg.threshold_km = kThreshold;
    cfg.t_begin = 0.0;
    cfg.t_end = kSpan;
    return cfg;
  }

  /// Oracle conjunctions comfortably below the threshold (no boundary
  /// flakiness) that every variant is required to find.
  static std::vector<OracleConjunction> must_find() {
    std::vector<OracleConjunction> out;
    for (const OracleConjunction& c : *truth_) {
      if (c.pca <= 0.9 * kThreshold) out.push_back(c);
    }
    return out;
  }

  static void expect_matches_oracle(const ScreeningReport& report,
                                    const std::string& label) {
    // Completeness: every comfortably-sub-threshold oracle encounter found.
    for (const OracleConjunction& c : must_find()) {
      EXPECT_TRUE(report_contains(report, c.sat_a, c.sat_b, c.tca, 5.0))
          << label << " missed " << c.sat_a << "-" << c.sat_b << " @ " << c.tca
          << " pca=" << c.pca;
    }
    // Soundness: every reported conjunction corresponds to an oracle
    // encounter at most marginally above the threshold.
    for (const Conjunction& c : report.conjunctions) {
      EXPECT_LE(c.pca, kThreshold);
      bool known = false;
      for (const OracleConjunction& o : *truth_) {
        if (o.sat_a == c.sat_a && o.sat_b == c.sat_b && std::abs(o.tca - c.tca) <= 5.0) {
          known = true;
          break;
        }
      }
      EXPECT_TRUE(known) << label << " invented " << c.sat_a << "-" << c.sat_b
                         << " @ " << c.tca << " pca=" << c.pca;
    }
  }

  static std::vector<Satellite>* sats_;
  static std::vector<OracleConjunction>* truth_;
};

std::vector<Satellite>* ScreenerAccuracy::sats_ = nullptr;
std::vector<OracleConjunction>* ScreenerAccuracy::truth_ = nullptr;

TEST_F(ScreenerAccuracy, OracleHasConjunctions) {
  // The shell geometry must actually produce encounters, otherwise the
  // agreement tests below are vacuous.
  EXPECT_GE(must_find().size(), 3u);
}

TEST_F(ScreenerAccuracy, GridMatchesOracle) {
  const ScreeningReport report = screen(*sats_, config(), Variant::kGrid);
  expect_matches_oracle(report, "grid");
  EXPECT_GT(report.stats.candidates, 0u);
  EXPECT_GT(report.stats.total_samples, 0u);
}

TEST_F(ScreenerAccuracy, HybridMatchesOracle) {
  const ScreeningReport report = screen(*sats_, config(), Variant::kHybrid);
  expect_matches_oracle(report, "hybrid");
  EXPECT_GT(report.stats.pairs_examined, 0u);
}

TEST_F(ScreenerAccuracy, LegacyMatchesOracle) {
  const ScreeningReport report = screen(*sats_, config(), Variant::kLegacy);
  expect_matches_oracle(report, "legacy");
  const std::size_t n = sats_->size();
  EXPECT_EQ(report.stats.pairs_examined, n * (n - 1) / 2);
}

TEST_F(ScreenerAccuracy, VariantsAgreeOnCollidingPairs) {
  const auto grid = screen(*sats_, config(), Variant::kGrid);
  const auto hybrid = screen(*sats_, config(), Variant::kHybrid);
  const auto legacy = screen(*sats_, config(), Variant::kLegacy);

  // The paper's Section V-D comparison: the colliding-pair sets agree up
  // to rare edge cases (there: 5 missed / 35 extra out of ~17k). At this
  // scale we allow a one-pair slack in each direction.
  const PairSetDiff gh = compare_pair_sets(grid.colliding_pairs(),
                                           hybrid.colliding_pairs());
  EXPECT_LE(gh.only_in_first, 1u);
  EXPECT_LE(gh.only_in_second, 1u);
  const PairSetDiff gl = compare_pair_sets(grid.colliding_pairs(),
                                           legacy.colliding_pairs());
  EXPECT_LE(gl.only_in_first, 1u);
  EXPECT_LE(gl.only_in_second, 1u);
}

TEST_F(ScreenerAccuracy, HybridMatchesGridOnGeneratedPopulation) {
  // Generated populations hold eccentric objects on planes a few hundredths
  // of a radian from near-circular ones, where a node test that reads the
  // radial gap at the node alone rejects real conjunctions. Hybrid must
  // report exactly grid's pairs (n = 50k, 1800 s, d = 2 km), except pairs
  // whose PCA lies within 50 m of d, where the two refinements may land on
  // either side of the threshold.
  constexpr double kEdgeKm = 0.05;
  for (const std::uint64_t seed : {1u, 7u}) {
    const auto sats = generate_population({50000, seed});
    ScreeningConfig cfg;
    cfg.t_end = 1800.0;
    const auto closest = [&](Variant variant) {
      std::map<std::pair<std::uint32_t, std::uint32_t>, double> pca;
      for (const Conjunction& c : screen(sats, cfg, variant).conjunctions) {
        const auto [it, inserted] = pca.try_emplace({c.sat_a, c.sat_b}, c.pca);
        if (!inserted) it->second = std::min(it->second, c.pca);
      }
      return pca;
    };
    const auto grid = closest(Variant::kGrid);
    const auto hybrid = closest(Variant::kHybrid);
    ASSERT_GT(grid.size(), 500u) << seed;
    const auto expect_within = [&](const auto& first, const auto& second,
                                   const char* what) {
      for (const auto& [pair, pca] : first) {
        if (second.count(pair) == 0) {
          EXPECT_LT(std::abs(pca - cfg.threshold_km), kEdgeKm)
              << what << " seed " << seed << ": " << pair.first << "-" << pair.second
              << " pca " << pca;
        }
      }
    };
    expect_within(grid, hybrid, "hybrid missed");
    expect_within(hybrid, grid, "hybrid invented");
  }
}

TEST_F(ScreenerAccuracy, GridDeterministicAcrossRunsAndThreads) {
  // Bit-identical for every pool size, including 2 and 3 workers, and
  // across repeated runs.
  ThreadPool one(1);
  ScreeningConfig cfg1 = config();
  cfg1.pool = &one;
  const auto r1 = screen(*sats_, cfg1, Variant::kGrid);
  ASSERT_GT(r1.conjunctions.size(), 0u);

  for (const std::size_t threads : {2u, 3u, 4u}) {
    ThreadPool pool(threads);
    ScreeningConfig cfg = config();
    cfg.pool = &pool;
    for (int run = 0; run < 2; ++run) {
      const auto r = screen(*sats_, cfg, Variant::kGrid);
      ASSERT_EQ(r1.conjunctions.size(), r.conjunctions.size()) << threads;
      for (std::size_t i = 0; i < r1.conjunctions.size(); ++i) {
        EXPECT_EQ(r1.conjunctions[i].sat_a, r.conjunctions[i].sat_a) << threads;
        EXPECT_EQ(r1.conjunctions[i].sat_b, r.conjunctions[i].sat_b) << threads;
        EXPECT_EQ(r1.conjunctions[i].tca, r.conjunctions[i].tca) << threads;
        EXPECT_EQ(r1.conjunctions[i].pca, r.conjunctions[i].pca) << threads;
      }
    }
  }
}

TEST_F(ScreenerAccuracy, DeviceBackendMatchesCpu) {
  Device device;  // default 4 GiB devicesim
  ScreeningConfig dev_cfg = config();
  dev_cfg.device = &device;

  const auto cpu = screen(*sats_, config(), Variant::kGrid);
  const auto dev = screen(*sats_, dev_cfg, Variant::kGrid);

  ASSERT_EQ(cpu.conjunctions.size(), dev.conjunctions.size());
  for (std::size_t i = 0; i < cpu.conjunctions.size(); ++i) {
    EXPECT_EQ(cpu.conjunctions[i].sat_a, dev.conjunctions[i].sat_a);
    EXPECT_NEAR(cpu.conjunctions[i].tca, dev.conjunctions[i].tca, 1e-3);
  }
  // The device actually did the work and the accounting shows it.
  EXPECT_GT(device.stats().kernels_launched, 0u);
  EXPECT_GT(device.stats().h2d_bytes, 0u);
  EXPECT_EQ(device.memory_used(), 0u);  // everything released after the run
}

TEST_F(ScreenerAccuracy, MultiRoundExecutionMatchesSingleRound) {
  // Shrink the budget so the span no longer fits in one round; the rounds
  // machinery must not change the result.
  const auto roomy = screen(*sats_, config(), Variant::kGrid);

  ScreeningConfig tight = config();
  tight.memory_budget = 2 << 20;  // 2 MiB
  const auto constrained = screen(*sats_, tight, Variant::kGrid);
  EXPECT_GT(constrained.stats.rounds, 1u);

  ASSERT_EQ(roomy.conjunctions.size(), constrained.conjunctions.size());
  for (std::size_t i = 0; i < roomy.conjunctions.size(); ++i) {
    EXPECT_EQ(roomy.conjunctions[i].sat_a, constrained.conjunctions[i].sat_a);
    EXPECT_EQ(roomy.conjunctions[i].sat_b, constrained.conjunctions[i].sat_b);
    EXPECT_EQ(roomy.conjunctions[i].tca, constrained.conjunctions[i].tca);
    EXPECT_EQ(roomy.conjunctions[i].pca, constrained.conjunctions[i].pca);
  }
}

TEST(Screeners, HeadOnRetrogradeEncounterHasPredictableTca) {
  // Same circular equatorial orbit flown in opposite directions: the
  // objects meet when their position angles coincide, at
  // t = (2 pi - M0) / (2 n), with PCA ~ 0.
  const double a = 7000.0;
  const double m0 = 0.3;
  std::vector<Satellite> sats{
      {0, {a, 1e-4, 0.0, 0.0, 0.0, 0.0}},
      {1, {a, 1e-4, kPi, 0.0, 0.0, m0}},
  };
  const double n = std::sqrt(kMuEarth / (a * a * a));
  const double expected_tca = (kTwoPi - m0) / (2.0 * n);

  ScreeningConfig cfg;
  cfg.threshold_km = 2.0;
  cfg.t_begin = 0.0;
  cfg.t_end = expected_tca + 600.0;

  for (Variant v : kAllVariants) {
    const ScreeningReport report = screen(sats, cfg, v);
    ASSERT_FALSE(report.conjunctions.empty()) << variant_name(v);
    bool found = false;
    for (const Conjunction& c : report.conjunctions) {
      if (std::abs(c.tca - expected_tca) < 2.0 && c.pca < 0.5) found = true;
    }
    EXPECT_TRUE(found) << variant_name(v) << ": no encounter at t=" << expected_tca;
  }
}

TEST(Screeners, SeparatedOrbitsYieldNoConjunctions) {
  // 7000 vs 7500 km circular shells: no encounter is possible.
  std::vector<Satellite> sats{
      {0, {7000.0, 1e-4, 0.5, 0.0, 0.0, 0.0}},
      {1, {7500.0, 1e-4, 1.5, 1.0, 0.0, 1.0}},
  };
  ScreeningConfig cfg;
  cfg.t_end = 3600.0;
  for (Variant v : kAllVariants) {
    EXPECT_TRUE(screen(sats, cfg, v).conjunctions.empty()) << variant_name(v);
  }
}

TEST(Screeners, TinyPopulationsHandled) {
  ScreeningConfig cfg;
  cfg.t_end = 600.0;
  const std::vector<Satellite> empty;
  const std::vector<Satellite> one{{0, {7000.0, 1e-4, 0.5, 0.0, 0.0, 0.0}}};
  for (Variant v : kAllVariants) {
    EXPECT_TRUE(screen(empty, cfg, v).conjunctions.empty()) << variant_name(v);
    EXPECT_TRUE(screen(one, cfg, v).conjunctions.empty()) << variant_name(v);
  }
}

TEST(Screeners, InvalidSpanRejected) {
  std::vector<Satellite> sats = dense_shell(4, 1);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  for (Variant v : kAllVariants) {
    ScreeningConfig cfg;
    cfg.t_begin = 100.0;
    cfg.t_end = 100.0;  // empty
    EXPECT_THROW(screen(sats, cfg, v), std::invalid_argument) << variant_name(v);
    cfg.t_end = -100.0;  // inverted
    EXPECT_THROW(screen(sats, cfg, v), std::invalid_argument) << variant_name(v);

    // Every value that is not a usable threshold, span end or sample
    // period is refused up front, by every variant alike.
    const auto rejects = [&](const auto& edit, const char* what) {
      ScreeningConfig bad;
      bad.t_end = 600.0;
      edit(bad);
      EXPECT_THROW(screen(sats, bad, v), std::invalid_argument)
          << variant_name(v) << ": " << what;
    };
    for (const double threshold : {-1.0, 0.0, kNan, kInf}) {
      rejects([threshold](ScreeningConfig& c) { c.threshold_km = threshold; },
              "threshold");
    }
    for (const double t : {kInf, -kInf, kNan}) {
      rejects([t](ScreeningConfig& c) { c.t_end = t; }, "t_end");
      rejects([t](ScreeningConfig& c) { c.t_begin = t; }, "t_begin");
      rejects([t](ScreeningConfig& c) { c.seconds_per_sample = t; },
              "seconds_per_sample");
    }
  }
}

TEST(Screeners, VariantNamesRoundTrip) {
  std::set<std::string> names;
  for (Variant v : kAllVariants) {
    EXPECT_EQ(parse_variant(variant_name(v)), v) << variant_name(v);
    names.insert(variant_name(v));
  }
  EXPECT_EQ(names.size(), kAllVariants.size());
  EXPECT_FALSE(parse_variant("turbo").has_value());
}

// A removed variant's name is refused like any unknown one.
TEST(Screeners, ParseVariantRefusesRemovedSieve) {
  EXPECT_FALSE(parse_variant("sieve").has_value());
}

TEST(Screeners, LegacyHasNoDeviceBackend) {
  Device device;
  ScreeningConfig cfg;
  cfg.device = &device;
  std::vector<Satellite> sats = dense_shell(4, 2);
  EXPECT_THROW(screen(sats, cfg, Variant::kLegacy), std::invalid_argument);
}

// The hybrid and legacy filters read epoch elements, so they refuse a
// propagator whose orbits drift (j2, tle, ephemeris) before any work, and
// a forwarding propagator answers as the one it wraps. Grid screens all
// four propagators.
TEST(Screeners, FilterVariantsRefuseDriftingPropagators) {
  const std::vector<Satellite> sats = dense_shell(12, 3);
  ScreeningConfig cfg;
  cfg.t_end = 1200.0;
  const ContourKeplerSolver solver;
  const TwoBodyPropagator kepler(sats, solver);
  const J2SecularPropagator j2(sats, solver);
  std::vector<TleRecord> records;
  for (const Satellite& sat : sats) {
    TleRecord rec;
    rec.catalog_number = sat.id;
    rec.elements = sat.elements;
    rec.mean_motion_rev_day = 86400.0 / orbital_period(sat.elements);
    records.push_back(rec);
  }
  const TleSecularPropagator tle(records, solver);
  const auto ephemeris =
      EphemerisPropagator::sample(kepler, cfg.t_begin, cfg.t_end, 20.0);
  const testutil::ForwardingPropagator forwarded_kepler(kepler);
  const testutil::ForwardingPropagator forwarded_j2(j2);
  EXPECT_TRUE(kepler.fixed_elements());
  EXPECT_TRUE(forwarded_kepler.fixed_elements());

  const std::pair<const char*, const Propagator*> drifting[] = {
      {"j2", &j2},
      {"tle", &tle},
      {"ephemeris", &ephemeris},
      {"forwarded j2", &forwarded_j2}};
  for (const Variant v : kAllVariants) {
    const std::unique_ptr<Screener> screener = make_screener(v);
    EXPECT_NO_THROW(screener->screen(forwarded_kepler, cfg)) << variant_name(v);
    for (const auto& [name, propagator] : drifting) {
      SCOPED_TRACE(variant_name(v) + " / " + name);
      EXPECT_FALSE(propagator->fixed_elements());
      if (v == Variant::kGrid) {
        EXPECT_NO_THROW(screener->screen(*propagator, cfg));
        continue;
      }
      try {
        screener->screen(*propagator, cfg);
        ADD_FAILURE() << "accepted a drifting propagator";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("need two-body propagation"),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

// The shared skeleton passes a device to every variant; only legacy
// refuses it, before launching anything, while grid and hybrid run on it
// and report what they report on the CPU.
TEST(Screeners, OnlyLegacyRefusesADevice) {
  std::vector<Satellite> sats = dense_shell(12, 3);
  Rng rng(0xDE5);
  sats.push_back(testutil::make_interceptor(sats[0].elements, 600.0, 1.0, rng, 12));
  ScreeningConfig cpu_cfg;
  cpu_cfg.t_end = 1200.0;
  for (const Variant v : kAllVariants) {
    SCOPED_TRACE(variant_name(v));
    Device device;
    ScreeningConfig dev_cfg = cpu_cfg;
    dev_cfg.device = &device;
    if (v == Variant::kLegacy) {
      try {
        screen(sats, dev_cfg, v);
        ADD_FAILURE() << "legacy accepted a device";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("no device backend"), std::string::npos)
            << e.what();
      }
      EXPECT_EQ(device.stats().kernels_launched, 0u);
      continue;
    }
    const ScreeningReport cpu = screen(sats, cpu_cfg, v);
    const ScreeningReport dev = screen(sats, dev_cfg, v);
    EXPECT_GT(device.stats().kernels_launched, 0u);
    EXPECT_FALSE(cpu.conjunctions.empty());
    EXPECT_EQ(dev.colliding_pairs(), cpu.colliding_pairs());
  }
}

TEST(Screeners, SecondsPerSampleOverrideIsHonored) {
  std::vector<Satellite> sats = dense_shell(10, 3);
  ScreeningConfig cfg;
  cfg.t_end = 1200.0;
  cfg.seconds_per_sample = 2.0;
  const auto report = screen(sats, cfg, Variant::kGrid);
  EXPECT_DOUBLE_EQ(report.stats.seconds_per_sample, 2.0);
  EXPECT_DOUBLE_EQ(report.stats.cell_size_km,
                   cfg.threshold_km + kLeoSpeed * 2.0);
  EXPECT_EQ(report.stats.total_samples, 601u);
}

TEST(Screeners, CandidateSetGrowthPathIsCorrect) {
  // A debris cloud is so dense that candidate counts blow through a
  // near-zero model's floor capacity. On the CPU every worker keeps its own
  // key list, so nothing grows; devicesim's candidate buffer grows and its
  // CD kernel re-runs. Either way the candidates must be exactly those of
  // a run sized generously from the start. At d = 20 km most of the
  // cloud's pairs stay within reach for much of the span.
  const KeplerElements parent{7000.0, 0.001, 1.0, 0.5, 0.2, 1.0};
  const auto cloud = generate_debris_cloud(parent, 80, 0.05, 99);
  const ContourKeplerSolver solver;
  const TwoBodyPropagator propagator(cloud, solver);

  ScreeningConfig base;
  base.threshold_km = 20.0;
  base.t_end = 600.0;
  base.seconds_per_sample = GridScreener::kDefaultSecondsPerSample;

  ConjunctionCountModel tiny = ConjunctionCountModel::paper_grid();
  tiny.coefficient = 1e-20;  // the 20 000-candidate floor
  ConjunctionCountModel roomy = ConjunctionCountModel::paper_grid();
  roomy.coefficient *= 1e6;  // far above what the cloud produces

  ThreadPool one(1), four(4);
  Device device(DeviceProperties{}, &four);
  for (const std::size_t threads : {1u, 4u, 0u}) {  // 0: devicesim
    const std::string label = threads == 0 ? "devicesim" : std::to_string(threads) + " threads";
    ScreeningConfig cfg = base;
    cfg.pool = threads == 1 ? &one : &four;
    if (threads == 0) cfg.device = &device;
    const auto sorted_candidates = [&](const ConjunctionCountModel& model,
                                       std::size_t& growths) {
      GridPipelineResult result;
      std::vector<Candidate> c =
          testutil::pipeline_candidates(propagator, cfg, model, {}, result);
      growths = result.candidate_set_growths;
      return c;
    };
    std::size_t forced_growths = 0, roomy_growths = 0;
    const std::vector<Candidate> forced = sorted_candidates(tiny, forced_growths);
    const std::vector<Candidate> reference = sorted_candidates(roomy, roomy_growths);

    if (threads == 0) {
      EXPECT_GT(forced_growths, 0u) << label;
    } else {
      EXPECT_EQ(forced_growths, 0u) << label;
    }
    EXPECT_EQ(roomy_growths, 0u) << label;
    ASSERT_GT(reference.size(), 20000u) << label;
    ASSERT_EQ(forced.size(), reference.size()) << label;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(std::tie(forced[i].sat_a, forced[i].sat_b, forced[i].step),
                std::tie(reference[i].sat_a, reference[i].sat_b, reference[i].step))
          << label << " #" << i;
    }
  }
}

/// What a grid screen finds, which must not depend on how it executes.
struct GridOutcome {
  std::vector<Conjunction> conjunctions;  ///< empty for a pipeline-only run
  std::vector<Candidate> candidates;      ///< sorted; empty for a full screen
  std::size_t candidate_count = 0;
  std::size_t growths = 0;
  std::size_t rounds = 0;
  std::size_t parallel_samples = 0;
  std::uint64_t grid_memory_bytes = 0;
};

void expect_same_outcome(const GridOutcome& a, const GridOutcome& b,
                         const std::string& label) {
  EXPECT_EQ(a.candidate_count, b.candidate_count) << label;
  ASSERT_EQ(a.conjunctions.size(), b.conjunctions.size()) << label;
  for (std::size_t i = 0; i < a.conjunctions.size(); ++i) {
    EXPECT_EQ(a.conjunctions[i].sat_a, b.conjunctions[i].sat_a) << label << " #" << i;
    EXPECT_EQ(a.conjunctions[i].sat_b, b.conjunctions[i].sat_b) << label << " #" << i;
    EXPECT_EQ(a.conjunctions[i].tca, b.conjunctions[i].tca) << label << " #" << i;
    EXPECT_EQ(a.conjunctions[i].pca, b.conjunctions[i].pca) << label << " #" << i;
  }
  ASSERT_EQ(a.candidates.size(), b.candidates.size()) << label;
  for (std::size_t i = 0; i < a.candidates.size(); ++i) {
    EXPECT_EQ(std::tie(a.candidates[i].sat_a, a.candidates[i].sat_b, a.candidates[i].step),
              std::tie(b.candidates[i].sat_a, b.candidates[i].sat_b, b.candidates[i].step))
        << label << " #" << i;
  }
}

TEST(Screeners, FusedPathInvariantToThreadsAndRoundShape) {
  // The CPU path runs each sample step through one worker-owned grid, the
  // devicesim path one grid per step with separate INS and CD kernels.
  // Neither the thread count, nor the round length p (1, 2 < 4 workers,
  // half the steps, and every step in one round), nor the backend may move
  // a single bit of what a screen finds. (The round length decides where a
  // CPU worker's warm-started runs are cut, and devicesim solves every
  // sample cold, so their positions differ by under 1e-9 km; no pair here
  // sits that close to a prefilter cutoff or cell face, and refinement
  // always solves cold.) Covered: the batched kernel (kepler), the
  // position() loop (j2), a dirty-mask screen through either (its phantom
  // registration and lookup, on the CPU only: a masked screen refuses a
  // device), and the floor count model, under which devicesim's candidate
  // buffer grows while the CPU workers' key lists never fill, with and
  // without a mask. The masked screen through position() must also match
  // the batched one exactly.
  auto sats = dense_shell(60, 0xF05E);
  Rng rng(0xF00D);
  for (std::uint32_t k = 0; k < 4; ++k) {
    sats.push_back(testutil::make_interceptor(
        sats[7 * k].elements, 400.0 + 500.0 * k, 1.0 + 0.5 * k, rng,
        static_cast<std::uint32_t>(sats.size())));
  }
  const KeplerElements cloud_parent{7000.0, 0.001, 1.0, 0.5, 0.2, 1.0};
  const auto cloud = generate_debris_cloud(cloud_parent, 160, 0.05, 99);

  ScreeningConfig base;
  base.threshold_km = 5.0;
  base.t_end = 2400.0;
  base.seconds_per_sample = GridScreener::kDefaultSecondsPerSample;

  std::vector<std::uint8_t> dirty(sats.size(), 0);
  for (std::size_t i = 0; i < dirty.size(); i += 3) dirty[i] = 1;
  // Two in three fragments dirty: 8/9 of the cloud's pairs stay, enough to
  // overflow the floor capacity in rounds of half the span.
  std::vector<std::uint8_t> cloud_dirty(cloud.size(), 1);
  for (std::size_t i = 0; i < cloud_dirty.size(); i += 3) cloud_dirty[i] = 0;

  ConjunctionCountModel tiny = ConjunctionCountModel::paper_grid();
  tiny.coefficient = 1e-20;  // the 20 000-candidate floor: the cloud grows it

  // Two rounds: the first holds half the steps, rounded up.
  const std::size_t half_span =
      (static_cast<std::size_t>(base.span_seconds() / base.seconds_per_sample) + 2) / 2;

  // Budget holding the fixed data plus exactly `grids` per-step tables
  // (0: default): GridHashSets of `entries` entries each, or the CPU full
  // screen's cell lists when `entries` is 0, each with its worker's
  // warm-start anomalies when `warm`. Only devicesim's plan also reserves
  // the model's candidate buffer.
  const auto budget_for = [&](std::size_t n, std::size_t entries,
                              const ConjunctionCountModel& model, std::size_t grids,
                              bool warm, bool device) -> std::uint64_t {
    if (grids == 0) return ScreeningConfig{}.memory_budget;
    SizingRequest request;
    request.satellites = n;
    request.grid_entries = entries;
    request.warm_start = warm;
    request.span_seconds = base.span_seconds();
    request.seconds_per_sample = base.seconds_per_sample;
    if (device) {
      request.candidate_capacity = candidate_capacity_from_model(
          model, static_cast<double>(n), base.seconds_per_sample, base.span_seconds(),
          base.threshold_km);
    }
    const SizingPlan plan = plan_samples(request);
    return plan.fixed_bytes + grids * plan.per_grid_bytes;
  };

  const ContourKeplerSolver solver;
  const TwoBodyPropagator kepler(sats, solver);
  const J2SecularPropagator j2(sats, solver);
  const TwoBodyPropagator cloud_kepler(cloud, solver);
  const testutil::ForwardingPropagator kepler_scalar(kepler);

  // One case: a full screen through GridScreener, or (grow) the pipeline
  // alone with the tiny count model.
  struct Case {
    const char* name;
    const Propagator* propagator;
    std::span<const std::uint8_t> dirty;
    bool grow;
  };
  const Case cases[] = {{"kepler", &kepler, {}, false},
                        {"j2", &j2, {}, false},
                        {"dirty", &kepler, dirty, false},
                        {"dirty-scalar", &kepler_scalar, dirty, false},
                        {"grow", &cloud_kepler, {}, true},
                        {"dirty-grow", &cloud_kepler, cloud_dirty, true}};

  ThreadPool one(1), two(2), four(4);
  std::map<std::string, GridOutcome> references;
  for (const Case& c : cases) {
    const std::size_t n = c.propagator->size();
    const ConjunctionCountModel& model = c.grow ? tiny : ConjunctionCountModel::paper_grid();
    // A masked screen's phantom table holds 27 entries per dirty object; a
    // full screen's step goes through a cell list of n on the CPU and a
    // grid of n on devicesim.
    const std::size_t entries =
        c.dirty.empty() ? n
                        : 27 * static_cast<std::size_t>(
                                   std::count(c.dirty.begin(), c.dirty.end(), 1));
    std::optional<GridOutcome> reference;
    for (const std::size_t grids :
         {std::size_t{1}, std::size_t{2}, half_span, std::size_t{0}}) {
      std::optional<GridOutcome> shape_reference;
      for (ThreadPool* pool : {&one, &two, &four, static_cast<ThreadPool*>(nullptr)}) {
        // devicesim accounts a grown candidate map against device memory,
        // and a budget of exactly p grids leaves it no room to grow.
        if (pool == nullptr && c.grow && grids != 0) continue;
        if (pool == nullptr && !c.dirty.empty()) continue;
        const bool cell_lists = c.dirty.empty() && pool != nullptr;
        // A CPU worker with the batched kernel also holds n anomalies.
        const bool warm = pool != nullptr &&
                          dynamic_cast<const TwoBodyPropagator*>(c.propagator) != nullptr;
        const std::uint64_t budget =
            budget_for(n, cell_lists ? 0 : entries, model, grids, warm, pool == nullptr);
        const std::size_t per_grid =
            (cell_lists ? CellList::projected_memory_bytes(n)
                        : GridHashSet(entries).memory_bytes()) +
            (warm ? n * sizeof(double) : 0);
        DeviceProperties props;
        props.memory_bytes = budget;
        Device device(props, &four);
        ScreeningConfig cfg = base;
        cfg.memory_budget = budget;
        cfg.pool = pool != nullptr ? pool : &four;
        if (pool == nullptr) cfg.device = &device;

        GridOutcome out;
        GridPipelineOptions options;
        options.dirty_mask = c.dirty;
        if (c.grow) {
          GridPipelineResult result;
          out.candidates = testutil::pipeline_candidates(*c.propagator, cfg, model,
                                                         options, result);
          out.candidate_count = result.total_candidates;
          out.growths = result.candidate_set_growths;
          out.rounds = result.plan.rounds;
          out.parallel_samples = result.plan.parallel_samples;
          out.grid_memory_bytes = result.grid_memory_bytes;
        } else {
          const ScreeningReport report = GridScreener(options).screen(*c.propagator, cfg);
          out.conjunctions = report.conjunctions;
          out.candidate_count = report.stats.candidates;
          out.growths = report.stats.candidate_set_growths;
          out.rounds = report.stats.rounds;
          out.parallel_samples = report.stats.parallel_samples;
          out.grid_memory_bytes = report.stats.grid_memory_bytes;
        }

        const std::string label = std::string(c.name) + " grids=" +
                                  std::to_string(grids) + " " +
                                  (pool == nullptr ? std::string("devicesim")
                                                   : std::to_string(pool->thread_count()) +
                                                         " threads");
        const std::size_t p = out.parallel_samples;
        if (grids != 0) {
          EXPECT_EQ(p, grids) << label;
        } else {
          EXPECT_EQ(out.rounds, 1u) << label;
        }
        const std::size_t held =
            pool == nullptr ? p : std::min(p, pool->thread_count());
        EXPECT_EQ(out.grid_memory_bytes, held * per_grid) << label;
        if (!shape_reference) shape_reference = out;
        EXPECT_EQ(out.rounds, shape_reference->rounds) << label;
        // Only devicesim's candidate buffer grows; it runs the grow cases
        // in one round, which overflows the cloud's floor capacity.
        if (pool != nullptr) {
          EXPECT_EQ(out.growths, 0u) << label;
        } else if (c.grow) {
          EXPECT_GT(out.growths, 0u) << label;
        }
        if (!reference) reference = out;
        expect_same_outcome(out, *reference, label);
      }
    }
    EXPECT_GT(reference->candidate_count, 0u) << c.name;
    if (!c.grow) {
      EXPECT_GT(reference->conjunctions.size(), 0u) << c.name;
    }
    references.emplace(c.name, *reference);
  }
  // Hiding the batched kernel changes how positions are computed, never
  // what a masked screen finds.
  expect_same_outcome(references.at("dirty-scalar"), references.at("dirty"),
                      "dirty-scalar vs dirty");
}

class GridOracleSweep : public testing::TestWithParam<std::uint64_t> {};

TEST_P(GridOracleSweep, GridMatchesOracleAcrossSeeds) {
  // Small multi-seed property sweep: the fixture above pins one
  // population; this re-checks the grid variant's oracle agreement on
  // fresh random geometry each time.
  const std::uint64_t seed = GetParam();
  auto sats = dense_shell(25, seed);
  Rng rng(seed ^ 0xFEED);
  for (std::uint32_t k = 0; k < 4; ++k) {
    const auto target = rng.uniform_index(sats.size());
    sats.push_back(testutil::make_interceptor(
        sats[target].elements, rng.uniform(400.0, 3600.0), rng.uniform(-3.0, 3.0),
        rng, static_cast<std::uint32_t>(25 + k)));
  }

  ScreeningConfig cfg;
  cfg.threshold_km = 5.0;
  cfg.t_end = 4000.0;
  const auto truth = oracle(sats, cfg.t_begin, cfg.t_end, cfg.threshold_km * 1.2);
  const ScreeningReport report = screen(sats, cfg, Variant::kGrid);

  for (const OracleConjunction& c : truth) {
    if (c.pca > 0.9 * cfg.threshold_km) continue;
    EXPECT_TRUE(report_contains(report, c.sat_a, c.sat_b, c.tca, 5.0))
        << "seed " << seed << " missed " << c.sat_a << "-" << c.sat_b << " @ "
        << c.tca << " pca=" << c.pca;
  }
  for (const Conjunction& c : report.conjunctions) {
    EXPECT_LE(c.pca, cfg.threshold_km);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GridOracleSweep,
                         testing::Values(11u, 222u, 3333u, 44444u));

TEST(Screeners, BatchedInsertionKernelMatchesScalarExactly) {
  // The SoA insertion kernel warm-starts Kepler's equation from a worker's
  // previous step, so its positions agree with the per-tuple scalar path
  // to 1e-9 km rather than bit for bit; no candidate sits that close to a
  // cutoff here. A forwarding propagator is not a TwoBodyPropagator, so it
  // takes the scalar path (and the virtual refinement evaluator, itself
  // bit-identical to the snapshot one); no conjunction may move: same
  // pairs, same TCAs, same PCAs, to the last bit.
  auto sats = dense_shell(60, 0xBA7C);
  Rng rng(0x5EED);
  sats.push_back(testutil::make_interceptor(sats[5].elements, 1800.0, 1.5, rng,
                                            static_cast<std::uint32_t>(sats.size())));
  ScreeningConfig cfg;
  cfg.threshold_km = 5.0;
  cfg.t_end = 6000.0;

  const ContourKeplerSolver solver;
  const TwoBodyPropagator direct(sats, solver);
  const testutil::ForwardingPropagator forwarded(direct);

  const GridScreener screener;
  const ScreeningReport batch_report = screener.screen(direct, cfg);
  const ScreeningReport scalar_report = screener.screen(forwarded, cfg);

  EXPECT_GT(batch_report.conjunctions.size(), 0u);
  ASSERT_EQ(batch_report.conjunctions.size(), scalar_report.conjunctions.size());
  for (std::size_t i = 0; i < batch_report.conjunctions.size(); ++i) {
    EXPECT_EQ(batch_report.conjunctions[i].sat_a, scalar_report.conjunctions[i].sat_a);
    EXPECT_EQ(batch_report.conjunctions[i].sat_b, scalar_report.conjunctions[i].sat_b);
    EXPECT_EQ(batch_report.conjunctions[i].tca, scalar_report.conjunctions[i].tca);
    EXPECT_EQ(batch_report.conjunctions[i].pca, scalar_report.conjunctions[i].pca);
  }
  EXPECT_EQ(batch_report.stats.candidates, scalar_report.stats.candidates);
}

TEST(Screeners, WarmStartedScreensIdenticalOnOneAndFourThreads) {
  // The CPU workers warm-start Kepler's equation across runs of
  // consecutive steps whose boundaries depend on the step index alone, so
  // grid, hybrid and a masked service epoch report the same to the bit
  // however many workers share the runs. 1800 s is 451 grid steps (29
  // runs) and 113 hybrid steps (8 runs).
  const auto sats = generate_population({3000, 23});
  const ContourKeplerSolver solver;
  const TwoBodyPropagator propagator(sats, solver);
  ScreeningConfig base;
  base.threshold_km = 5.0;
  base.t_end = 1800.0;

  const auto expect_same = [](const std::vector<Conjunction>& a,
                              const std::vector<Conjunction>& b, const std::string& label) {
    ASSERT_EQ(a.size(), b.size()) << label;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(std::tie(a[i].sat_a, a[i].sat_b, a[i].tca, a[i].pca),
                std::tie(b[i].sat_a, b[i].sat_b, b[i].tca, b[i].pca))
          << label << " #" << i;
    }
  };

  ThreadPool one(1), four(4);
  for (const Variant variant : {Variant::kGrid, Variant::kHybrid}) {
    const std::unique_ptr<Screener> screener = make_screener(variant);
    ScreeningConfig cfg = base;
    cfg.pool = &one;
    const ScreeningReport serial = screener->screen(propagator, cfg);
    cfg.pool = &four;
    const ScreeningReport parallel = screener->screen(propagator, cfg);
    const std::string label(variant_name(variant));
    EXPECT_GT(serial.conjunctions.size(), 0u) << label;
    EXPECT_EQ(serial.stats.candidates, parallel.stats.candidates) << label;
    expect_same(serial.conjunctions, parallel.conjunctions, label);
  }

  // A service epoch that moves 30 objects screens incrementally, through
  // the masked (phantom) step.
  std::vector<Satellite> moved(sats.begin(), sats.begin() + 30);
  for (Satellite& sat : moved) sat.elements.mean_anomaly += 0.02;
  std::vector<ServiceReport> epochs;
  for (ThreadPool* pool : {&one, &four}) {
    ServiceOptions options;
    options.config = base;
    options.config.pool = pool;
    ScreeningService service(options);
    service.upsert(sats);
    service.screen();
    service.upsert(moved);
    epochs.push_back(service.screen(ScreenMode::kIncremental));
    EXPECT_TRUE(epochs.back().incremental);
  }
  EXPECT_EQ(epochs[0].stats.candidates, epochs[1].stats.candidates);
  ASSERT_EQ(epochs[0].conjunctions.size(), epochs[1].conjunctions.size());
  EXPECT_GT(epochs[0].conjunctions.size(), 0u);
  for (std::size_t i = 0; i < epochs[0].conjunctions.size(); ++i) {
    const IdConjunction& a = epochs[0].conjunctions[i];
    const IdConjunction& b = epochs[1].conjunctions[i];
    EXPECT_EQ(std::tie(a.id_a, a.id_b, a.tca, a.pca), std::tie(b.id_a, b.id_b, b.tca, b.pca))
        << "service #" << i;
  }
}

TEST(Screeners, MultiRoundScreenMatchesSingleRound) {
  // Grid refines each round's candidates as the round drains and hybrid
  // collects every round before filtering; either way a screen cut into
  // many small rounds must report exactly what a one-round screen does.
  auto sats = dense_shell(50, 0x57E4);
  Rng rng(0x57E5);
  for (std::uint32_t k = 0; k < 8; ++k) {
    sats.push_back(testutil::make_interceptor(
        sats[5 * k].elements, rng.uniform(300.0, 6900.0), rng.uniform(-3.5, 3.5), rng,
        static_cast<std::uint32_t>(sats.size())));
  }
  ScreeningConfig cfg;
  cfg.threshold_km = 5.0;
  cfg.t_end = 7200.0;
  ScreeningConfig tight = cfg;
  tight.memory_budget = 1 << 20;  // 1 MiB: force many small rounds

  for (const Variant v : {Variant::kGrid, Variant::kHybrid}) {
    const auto screener = make_screener(v);
    const ScreeningReport single = screener->screen(sats, cfg);
    const ScreeningReport multi = screener->screen(sats, tight);
    const std::string label = variant_name(v);

    EXPECT_EQ(single.stats.rounds, 1u) << label;
    EXPECT_GT(multi.stats.rounds, 1u) << label;
    EXPECT_EQ(multi.stats.seconds_per_sample, single.stats.seconds_per_sample) << label;
    EXPECT_EQ(multi.stats.candidates, single.stats.candidates) << label;
    EXPECT_EQ(multi.stats.refinements, single.stats.refinements) << label;
    ASSERT_FALSE(single.conjunctions.empty()) << label;
    ASSERT_EQ(multi.conjunctions.size(), single.conjunctions.size()) << label;
    for (std::size_t i = 0; i < single.conjunctions.size(); ++i) {
      EXPECT_EQ(multi.conjunctions[i].sat_a, single.conjunctions[i].sat_a) << label;
      EXPECT_EQ(multi.conjunctions[i].sat_b, single.conjunctions[i].sat_b) << label;
      EXPECT_EQ(multi.conjunctions[i].tca, single.conjunctions[i].tca) << label;
      EXPECT_EQ(multi.conjunctions[i].pca, single.conjunctions[i].pca) << label;
    }
  }
}

TEST(Screeners, EphemerisBackedScreeningMatchesDirectPropagation) {
  // Screening over the interpolated ephemeris (sub-metre interpolation
  // error) must reproduce the direct two-body screening: same pairs, TCAs
  // within the Brent tolerance scale.
  const auto sats = dense_shell(40, 0xE9);
  ScreeningConfig cfg;
  cfg.threshold_km = 5.0;
  cfg.t_end = 3600.0;

  const ContourKeplerSolver solver;
  const TwoBodyPropagator direct(sats, solver);
  const auto ephemeris =
      EphemerisPropagator::sample(direct, cfg.t_begin, cfg.t_end, 20.0);

  const GridScreener screener;
  const ScreeningReport from_direct = screener.screen(direct, cfg);
  const ScreeningReport from_table = screener.screen(ephemeris, cfg);

  ASSERT_EQ(from_direct.conjunctions.size(), from_table.conjunctions.size());
  for (std::size_t i = 0; i < from_direct.conjunctions.size(); ++i) {
    EXPECT_EQ(from_direct.conjunctions[i].sat_a, from_table.conjunctions[i].sat_a);
    EXPECT_EQ(from_direct.conjunctions[i].sat_b, from_table.conjunctions[i].sat_b);
    EXPECT_NEAR(from_direct.conjunctions[i].tca, from_table.conjunctions[i].tca, 0.5);
    EXPECT_NEAR(from_direct.conjunctions[i].pca, from_table.conjunctions[i].pca, 1e-3);
  }
}

TEST(Screeners, SnapshotAndVirtualEvaluatorsAgreeBitForBit) {
  // A random shell with engineered interceptors (window survivors) and
  // co-orbital twins trailing a shell member by ~1.4 km (coplanar
  // survivors), so every branch of the hybrid and legacy chains refines.
  std::vector<Satellite> sats = dense_shell(60, 0xB17);
  Rng rng(0xB18);
  for (std::uint32_t k = 0; k < 8; ++k) {
    const auto target = rng.uniform_index(60);
    sats.push_back(testutil::make_interceptor(
        sats[target].elements, rng.uniform(300.0, 3300.0), rng.uniform(-3.0, 3.0),
        rng, static_cast<std::uint32_t>(sats.size())));
  }
  for (std::uint32_t k = 0; k < 4; ++k) {
    KeplerElements twin = sats[k].elements;
    twin.mean_anomaly += 2e-4;
    twin.semi_major_axis += 0.3;
    sats.push_back({static_cast<std::uint32_t>(sats.size()), twin});
  }
  ScreeningConfig cfg;
  cfg.threshold_km = 5.0;
  cfg.t_end = 3600.0;

  const ContourKeplerSolver solver;
  const TwoBodyPropagator direct(sats, solver);
  const testutil::ForwardingPropagator forwarded(direct);
  ASSERT_TRUE(RefineFastPath::probe(direct).available());
  ASSERT_FALSE(RefineFastPath::probe(forwarded).available());

  using obs::Counter;
  constexpr Counter kFunnel[] = {
      Counter::kPairsReachRejected,         Counter::kCandidatesEmitted,
      Counter::kFilterPairsIn,              Counter::kFilterApogeePerigeeRejects,
      Counter::kFilterPathChecks,           Counter::kFilterPathRejects,
      Counter::kFilterWindowChecks,         Counter::kFilterWindowRejects,
      Counter::kFilterCoplanarPairs,        Counter::kFilterSurvivors,
      Counter::kRefinements,                Counter::kBrentIterations,
      Counter::kWindowClamps,               Counter::kEdgeDiscards,
      Counter::kConjunctionsRaw,            Counter::kConjunctionsReported};

  obs::set_enabled(true);
  for (Variant v : kAllVariants) {
    SCOPED_TRACE(variant_name(v));
    const std::unique_ptr<Screener> screener = make_screener(v);

    obs::reset();
    const ScreeningReport fast = screener->screen(direct, cfg);
    const obs::TelemetrySnapshot fast_counters = obs::snapshot();
    obs::reset();
    const ScreeningReport slow = screener->screen(forwarded, cfg);
    const obs::TelemetrySnapshot slow_counters = obs::snapshot();

    ASSERT_EQ(fast.conjunctions.size(), slow.conjunctions.size());
    for (std::size_t i = 0; i < fast.conjunctions.size(); ++i) {
      EXPECT_EQ(fast.conjunctions[i].sat_a, slow.conjunctions[i].sat_a);
      EXPECT_EQ(fast.conjunctions[i].sat_b, slow.conjunctions[i].sat_b);
      EXPECT_EQ(fast.conjunctions[i].tca, slow.conjunctions[i].tca);
      EXPECT_EQ(fast.conjunctions[i].pca, slow.conjunctions[i].pca);
    }
    EXPECT_EQ(fast.stats.candidates, slow.stats.candidates);
    EXPECT_EQ(fast.stats.pairs_examined, slow.stats.pairs_examined);
    EXPECT_EQ(fast.stats.filtered_apogee_perigee, slow.stats.filtered_apogee_perigee);
    EXPECT_EQ(fast.stats.filtered_path, slow.stats.filtered_path);
    EXPECT_EQ(fast.stats.filtered_windows, slow.stats.filtered_windows);
    EXPECT_EQ(fast.stats.coplanar_pairs, slow.stats.coplanar_pairs);
    EXPECT_EQ(fast.stats.refinements, slow.stats.refinements);
    for (const Counter c : kFunnel) {
      EXPECT_EQ(fast_counters.value(c), slow_counters.value(c)) << obs::counter_name(c);
    }
    EXPECT_FALSE(fast.conjunctions.empty());
    if ((v == Variant::kHybrid || v == Variant::kLegacy) && obs::compiled()) {
      // Both survivor kinds occur: window survivors pass the window check,
      // the other survivors are coplanar.
      const std::uint64_t window_survivors =
          fast_counters.value(Counter::kFilterWindowChecks) -
          fast_counters.value(Counter::kFilterWindowRejects);
      EXPECT_GT(window_survivors, 0u);
      EXPECT_GT(fast_counters.value(Counter::kFilterSurvivors), window_survivors);
    }
  }
  obs::set_enabled(false);
}

/// Every field of a report but its timings and memory gauges, compared to
/// the last bit (EXPECT_EQ, not EXPECT_DOUBLE_EQ).
void expect_bit_identical(const ScreeningReport& want, const ScreeningReport& got,
                          const std::string& label) {
  ASSERT_EQ(got.conjunctions.size(), want.conjunctions.size()) << label;
  for (std::size_t i = 0; i < want.conjunctions.size(); ++i) {
    EXPECT_EQ(got.conjunctions[i].sat_a, want.conjunctions[i].sat_a) << label;
    EXPECT_EQ(got.conjunctions[i].sat_b, want.conjunctions[i].sat_b) << label;
    EXPECT_EQ(got.conjunctions[i].tca, want.conjunctions[i].tca) << label;
    EXPECT_EQ(got.conjunctions[i].pca, want.conjunctions[i].pca) << label;
  }
  EXPECT_EQ(got.stats.satellites, want.stats.satellites) << label;
  EXPECT_EQ(got.stats.total_samples, want.stats.total_samples) << label;
  EXPECT_EQ(got.stats.rounds, want.stats.rounds) << label;
  EXPECT_EQ(got.stats.seconds_per_sample, want.stats.seconds_per_sample) << label;
  EXPECT_EQ(got.stats.cell_size_km, want.stats.cell_size_km) << label;
  EXPECT_EQ(got.stats.candidates, want.stats.candidates) << label;
  EXPECT_EQ(got.stats.pairs_examined, want.stats.pairs_examined) << label;
  EXPECT_EQ(got.stats.refinements, want.stats.refinements) << label;
  EXPECT_EQ(got.stats.candidate_set_growths, want.stats.candidate_set_growths) << label;
}

ScreeningConfig repeat_config() {
  ScreeningConfig cfg;
  cfg.threshold_km = 10.0;
  cfg.t_end = 1800.0;
  cfg.seconds_per_sample = 8.0;
  return cfg;
}

TEST(Screeners, WarmRepeatScreensAreBitIdenticalAcrossVariants) {
  // One screener object screening again and again reports what a fresh
  // one does, in one round and (tight budget) in several: no scratch of a
  // screen outlives it.
  const auto sats = generate_population({150, 21});
  ScreeningConfig tight = repeat_config();
  tight.memory_budget = 1 << 20;

  for (const Variant variant : kAllVariants) {
    for (const ScreeningConfig& cfg : {repeat_config(), tight}) {
      const std::string label = variant_name(variant) + " budget " +
                                std::to_string(cfg.memory_budget);
      const ScreeningReport fresh = make_screener(variant)->screen(sats, cfg);
      if (variant != Variant::kLegacy && cfg.memory_budget == tight.memory_budget) {
        EXPECT_GT(fresh.stats.rounds, 1u) << label;
      }
      const auto screener = make_screener(variant);
      for (int repeat = 0; repeat < 3; ++repeat) {
        expect_bit_identical(fresh, screener->screen(sats, cfg),
                             label + " repeat " + std::to_string(repeat));
      }
    }
  }
}

TEST(Screeners, InterleavedPopulationSizesStayBitIdentical) {
  // Alternating population sizes through one screener: each screen sizes
  // its per-step tables for its own population.
  const auto big = generate_population({400, 5});
  const auto small = generate_population({120, 6});
  const ScreeningConfig cfg = repeat_config();

  const ScreeningReport fresh_big = make_screener(Variant::kGrid)->screen(big, cfg);
  const ScreeningReport fresh_small = make_screener(Variant::kGrid)->screen(small, cfg);

  const auto screener = make_screener(Variant::kGrid);
  expect_bit_identical(fresh_big, screener->screen(big, cfg), "big #1");
  expect_bit_identical(fresh_small, screener->screen(small, cfg), "small after big");
  expect_bit_identical(fresh_big, screener->screen(big, cfg), "big after small");
  expect_bit_identical(fresh_big, screener->screen(big, cfg), "big repeat");
}

TEST(Screeners, TelemetryCountersIdenticalColdVersusWarm) {
  if (!obs::compiled()) GTEST_SKIP() << "built with SCOD_TELEMETRY=OFF";
  // A one-thread pool makes the probe/CAS counters deterministic, so the
  // whole snapshot (minus wall-clock timers) must replay exactly.
  ThreadPool one(1);
  const auto sats = generate_population({150, 41});
  ScreeningConfig cfg = repeat_config();
  cfg.pool = &one;

  const auto snapshot_of = [&](const Screener& screener) {
    obs::reset();
    obs::set_enabled(true);
    screener.screen(sats, cfg);
    obs::set_enabled(false);
    return obs::snapshot();
  };

  const obs::TelemetrySnapshot fresh = snapshot_of(*make_screener(Variant::kGrid));
  const auto screener = make_screener(Variant::kGrid);
  snapshot_of(*screener);
  const obs::TelemetrySnapshot repeat = snapshot_of(*screener);

  const auto first_timer = static_cast<std::size_t>(obs::Counter::kTimeInsertionNs);
  for (std::size_t i = 0; i < first_timer; ++i) {
    EXPECT_EQ(repeat.counters[i], fresh.counters[i])
        << obs::counter_name(static_cast<obs::Counter>(i));
  }
  for (std::size_t i = 0; i < repeat.probe_histogram.size(); ++i) {
    EXPECT_EQ(repeat.probe_histogram[i], fresh.probe_histogram[i]) << "probe bucket " << i;
  }
  obs::reset();
}

TEST(Screeners, HybridFilterStageIdenticalAcrossThreadsAndRounds) {
  // Hybrid sorts its candidate keys and classifies the distinct pairs on
  // the pool. Its report, filter funnel and filter counters must not
  // depend on the thread count, nor on how many rounds the front end cut
  // the span into.
  auto sats = dense_shell(120, 0xF11);
  Rng rng(0xF12);
  for (std::uint32_t k = 0; k < 12; ++k) {
    // Same-plane companions trailing within d take the coplanar branch,
    // interceptors the node windows.
    Satellite companion = sats[k];
    companion.id = static_cast<std::uint32_t>(sats.size());
    companion.elements.mean_anomaly += rng.uniform(1e-4, 6e-4);
    sats.push_back(companion);
    const KeplerElements target = sats[3 * k + 20].elements;
    const double t_star = rng.uniform(300.0, 3300.0);
    const auto id = static_cast<std::uint32_t>(sats.size());
    if (k % 2 == 0) {
      sats.push_back(testutil::make_interceptor(target, t_star, rng.uniform(-3.5, 3.5),
                                                rng, id));
    } else {
      // Almost head on and ~30 s late, the crosser misses by a few hundred
      // metres over d: close enough that the reach test keeps the pair,
      // too late for the node windows, which reject it.
      sats.push_back(testutil::make_late_crosser(target, t_star, kPi - 0.05,
                                                 rng.uniform(28.5, 30.5), id));
    }
  }
  ScreeningConfig roomy;
  roomy.threshold_km = 5.0;
  roomy.t_end = 3600.0;
  ScreeningConfig tight = roomy;
  tight.memory_budget = 1 << 20;

  struct Outcome {
    ScreeningReport report;
    obs::TelemetrySnapshot counters;
  };
  ThreadPool one(1), four(4);
  std::optional<Outcome> reference;
  for (const ScreeningConfig& base : {roomy, tight}) {
    for (ThreadPool* pool : {&one, &four}) {
      ScreeningConfig cfg = base;
      cfg.pool = pool;
      const std::string label = std::to_string(pool->thread_count()) +
                                " threads, budget " + std::to_string(cfg.memory_budget);
      obs::reset();
      obs::set_enabled(true);
      ScreeningReport report = make_screener(Variant::kHybrid)->screen(sats, cfg);
      const Outcome outcome{std::move(report), obs::snapshot()};
      obs::set_enabled(false);
      const ScreeningStats& stats = outcome.report.stats;
      EXPECT_EQ(stats.rounds == 1, base.memory_budget == roomy.memory_budget) << label;
      if (!reference) {
        EXPECT_GT(stats.coplanar_pairs, 0u);
        EXPECT_GT(stats.filtered_windows, 0u);
        EXPECT_GT(stats.pairs_examined, stats.filtered_apogee_perigee +
                                            stats.filtered_path + stats.filtered_windows);
        EXPECT_FALSE(outcome.report.conjunctions.empty());
        reference = outcome;
        continue;
      }
      const std::vector<Conjunction>& got = outcome.report.conjunctions;
      const std::vector<Conjunction>& expected = reference->report.conjunctions;
      ASSERT_EQ(got.size(), expected.size()) << label;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(std::tie(got[i].sat_a, got[i].sat_b, got[i].tca, got[i].pca),
                  std::tie(expected[i].sat_a, expected[i].sat_b, expected[i].tca,
                           expected[i].pca))
            << label << " #" << i;
      }
      const ScreeningStats& want = reference->report.stats;
      EXPECT_EQ(stats.candidates, want.candidates) << label;
      EXPECT_EQ(stats.refinements, want.refinements) << label;
      EXPECT_EQ(stats.pairs_examined, want.pairs_examined) << label;
      EXPECT_EQ(stats.filtered_apogee_perigee, want.filtered_apogee_perigee) << label;
      EXPECT_EQ(stats.filtered_path, want.filtered_path) << label;
      EXPECT_EQ(stats.filtered_windows, want.filtered_windows) << label;
      EXPECT_EQ(stats.coplanar_pairs, want.coplanar_pairs) << label;
      for (const obs::Counter c :
           {obs::Counter::kFilterPairsIn, obs::Counter::kFilterApogeePerigeeRejects,
            obs::Counter::kFilterPathChecks, obs::Counter::kFilterPathRejects,
            obs::Counter::kFilterWindowChecks, obs::Counter::kFilterWindowRejects,
            obs::Counter::kFilterCoplanarPairs, obs::Counter::kFilterSurvivors,
            obs::Counter::kRefinements, obs::Counter::kConjunctionsRaw,
            obs::Counter::kConjunctionsReported}) {
        EXPECT_EQ(outcome.counters.value(c), reference->counters.value(c))
            << label << " " << obs::counter_name(c);
      }
    }
  }
  obs::reset();
}

TEST(Screeners, PhaseTimingsArePopulated) {
  std::vector<Satellite> sats = dense_shell(30, 4);
  ScreeningConfig cfg;
  cfg.t_end = 1800.0;

  const auto grid = screen(sats, cfg, Variant::kGrid);
  EXPECT_GT(grid.timings.insertion, 0.0);
  EXPECT_GT(grid.timings.detection, 0.0);
  EXPECT_DOUBLE_EQ(grid.timings.filtering, 0.0);  // grid variant: no filters

  const auto hybrid = screen(sats, cfg, Variant::kHybrid);
  EXPECT_GT(hybrid.timings.insertion, 0.0);
  EXPECT_GE(hybrid.timings.filtering, 0.0);

  const auto legacy = screen(sats, cfg, Variant::kLegacy);
  EXPECT_GT(legacy.timings.filtering, 0.0);
}

}  // namespace
}  // namespace scod
