#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "core/context.hpp"
#include "core/screen.hpp"
#include "filters/dense_scan.hpp"
#include "obs/telemetry.hpp"
#include "orbit/geometry.hpp"
#include "pca/pair_evaluator.hpp"
#include "population/generator.hpp"
#include "propagation/contour_solver.hpp"
#include "propagation/ephemeris.hpp"
#include "propagation/two_body.hpp"
#include "scenario_helpers.hpp"
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

TEST_F(ScreenerAccuracy, SieveMatchesOracle) {
  const ScreeningReport report = screen(*sats_, config(), Variant::kSieve);
  expect_matches_oracle(report, "sieve");
  const std::size_t n = sats_->size();
  EXPECT_EQ(report.stats.pairs_examined, n * (n - 1) / 2);
  // The sieve's whole point: far fewer distance evaluations than a dense
  // scan of every pair (span/step * pairs).
  EXPECT_LT(report.stats.candidates,
            report.stats.pairs_examined * static_cast<std::size_t>(kSpan) / 16);
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

TEST_F(ScreenerAccuracy, GridDeterministicAcrossRunsAndThreads) {
  ThreadPool one(1), four(4);
  ScreeningConfig cfg1 = config();
  cfg1.pool = &one;
  ScreeningConfig cfg4 = config();
  cfg4.pool = &four;

  const auto r1 = screen(*sats_, cfg1, Variant::kGrid);
  const auto r4 = screen(*sats_, cfg4, Variant::kGrid);
  const auto r4b = screen(*sats_, cfg4, Variant::kGrid);

  ASSERT_EQ(r1.conjunctions.size(), r4.conjunctions.size());
  ASSERT_EQ(r4.conjunctions.size(), r4b.conjunctions.size());
  for (std::size_t i = 0; i < r1.conjunctions.size(); ++i) {
    EXPECT_EQ(r1.conjunctions[i].sat_a, r4.conjunctions[i].sat_a);
    EXPECT_EQ(r1.conjunctions[i].sat_b, r4.conjunctions[i].sat_b);
    EXPECT_NEAR(r1.conjunctions[i].tca, r4.conjunctions[i].tca, 1e-3);
    EXPECT_NEAR(r1.conjunctions[i].pca, r4.conjunctions[i].pca, 1e-6);
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
    EXPECT_NEAR(roomy.conjunctions[i].tca, constrained.conjunctions[i].tca, 1e-3);
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

  for (Variant v : {Variant::kGrid, Variant::kHybrid, Variant::kLegacy,
                    Variant::kSieve}) {
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
  for (Variant v : {Variant::kGrid, Variant::kHybrid, Variant::kLegacy,
                    Variant::kSieve}) {
    EXPECT_TRUE(screen(sats, cfg, v).conjunctions.empty()) << variant_name(v);
  }
}

TEST(Screeners, TinyPopulationsHandled) {
  ScreeningConfig cfg;
  cfg.t_end = 600.0;
  const std::vector<Satellite> empty;
  const std::vector<Satellite> one{{0, {7000.0, 1e-4, 0.5, 0.0, 0.0, 0.0}}};
  for (Variant v : {Variant::kGrid, Variant::kHybrid, Variant::kLegacy,
                    Variant::kSieve}) {
    EXPECT_TRUE(screen(empty, cfg, v).conjunctions.empty()) << variant_name(v);
    EXPECT_TRUE(screen(one, cfg, v).conjunctions.empty()) << variant_name(v);
  }
}

TEST(Screeners, InvalidSpanRejected) {
  std::vector<Satellite> sats = dense_shell(4, 1);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  for (Variant v : {Variant::kGrid, Variant::kHybrid, Variant::kLegacy,
                    Variant::kSieve}) {
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

TEST(Screeners, LegacyHasNoDeviceBackend) {
  Device device;
  ScreeningConfig cfg;
  cfg.device = &device;
  std::vector<Satellite> sats = dense_shell(4, 2);
  EXPECT_THROW(screen(sats, cfg, Variant::kLegacy), std::invalid_argument);
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
  // near-zero model's floor capacity, forcing the grow-and-retry path; the
  // re-scan after each grow must leave exactly the candidates of a run
  // that was reference generously from the start.
  const KeplerElements parent{7000.0, 0.001, 1.0, 0.5, 0.2, 1.0};
  const auto cloud = generate_debris_cloud(parent, 80, 0.05, 99);
  const ContourKeplerSolver solver;
  const TwoBodyPropagator propagator(cloud, solver);

  ScreeningConfig cfg;
  cfg.threshold_km = 2.0;
  cfg.t_end = 600.0;
  cfg.seconds_per_sample = GridScreener::kDefaultSecondsPerSample;

  ConjunctionCountModel tiny = ConjunctionCountModel::paper_grid();
  tiny.coefficient = 1e-20;  // the 20 000-candidate floor
  ConjunctionCountModel roomy = ConjunctionCountModel::paper_grid();
  roomy.coefficient *= 1e6;  // far above what the cloud produces

  ScreeningContext context;
  const auto sorted_candidates = [&](const ConjunctionCountModel& model,
                                     std::size_t& growths) {
    GridPipelineResult result = run_grid_pipeline(propagator, cfg, model, {}, context);
    growths = result.candidate_set_growths;
    std::vector<Candidate> c = std::move(result.candidates);
    std::sort(c.begin(), c.end(), [](const Candidate& x, const Candidate& y) {
      return std::tie(x.sat_a, x.sat_b, x.step) < std::tie(y.sat_a, y.sat_b, y.step);
    });
    return c;
  };
  std::size_t forced_growths = 0, roomy_growths = 0;
  const std::vector<Candidate> forced = sorted_candidates(tiny, forced_growths);
  const std::vector<Candidate> reference = sorted_candidates(roomy, roomy_growths);

  EXPECT_GT(forced_growths, 0u);
  EXPECT_EQ(roomy_growths, 0u);
  ASSERT_GT(reference.size(), 0u);
  ASSERT_EQ(forced.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(forced[i].sat_a, reference[i].sat_a) << i;
    EXPECT_EQ(forced[i].sat_b, reference[i].sat_b) << i;
    EXPECT_EQ(forced[i].step, reference[i].step) << i;
  }
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
  // The SoA insertion kernel is documented as bit-identical to the
  // per-tuple scalar path. A forwarding propagator is not a
  // TwoBodyPropagator, so it takes the scalar path (and the virtual
  // refinement evaluator, itself bit-identical to the snapshot one); no
  // conjunction may move: same pairs, same TCAs, same PCAs, to the last bit.
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

TEST(Screeners, StreamingModeMatchesBatchMode) {
  // Bounded-memory streaming must produce the same conjunction set as the
  // batch API, with candidates partitioned across many rounds.
  const auto sats = dense_shell(50, 0x57E4);
  ScreeningConfig cfg;
  cfg.threshold_km = 5.0;
  cfg.t_end = 7200.0;
  cfg.memory_budget = 2 << 20;  // 2 MiB: force many small rounds

  const GridScreener screener;
  const ScreeningReport batch = screener.screen(sats, cfg);

  const ContourKeplerSolver solver;
  const TwoBodyPropagator propagator(sats, solver);
  std::vector<Conjunction> streamed;
  std::size_t rounds_seen = 0;
  std::size_t last_round = 0;
  const ScreeningReport streaming = screener.screen_streaming(
      propagator, cfg, [&](std::size_t round, std::span<const Conjunction> batch_out) {
        EXPECT_GE(round, last_round);  // rounds arrive in order
        last_round = round;
        ++rounds_seen;
        streamed.insert(streamed.end(), batch_out.begin(), batch_out.end());
      });

  EXPECT_TRUE(streaming.conjunctions.empty());  // everything went to the sink
  EXPECT_GT(streaming.stats.rounds, 1u);
  EXPECT_EQ(rounds_seen, streaming.stats.rounds);
  EXPECT_EQ(streaming.stats.candidates, batch.stats.candidates);

  sort_conjunctions(streamed);
  ASSERT_EQ(streamed.size(), batch.conjunctions.size());
  for (std::size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_EQ(streamed[i].sat_a, batch.conjunctions[i].sat_a);
    EXPECT_EQ(streamed[i].sat_b, batch.conjunctions[i].sat_b);
    EXPECT_NEAR(streamed[i].tca, batch.conjunctions[i].tca, 1.0);
    EXPECT_NEAR(streamed[i].pca, batch.conjunctions[i].pca, 1e-3);
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
      Counter::kCandidatesEmitted,          Counter::kFilterPairsIn,
      Counter::kFilterApogeePerigeeRejects, Counter::kFilterPathChecks,
      Counter::kFilterPathRejects,          Counter::kFilterWindowChecks,
      Counter::kFilterWindowRejects,        Counter::kFilterCoplanarPairs,
      Counter::kFilterSurvivors,            Counter::kSieveDistanceEvals,
      Counter::kRefinements,                Counter::kBrentIterations,
      Counter::kWindowClamps,               Counter::kEdgeDiscards,
      Counter::kConjunctionsRaw,            Counter::kConjunctionsReported};

  for (Variant v : {Variant::kGrid, Variant::kHybrid, Variant::kLegacy,
                    Variant::kSieve}) {
    SCOPED_TRACE(variant_name(v));
    ScreeningContext context(ScreeningContext::Options{nullptr, /*telemetry=*/true});
    const std::unique_ptr<Screener> screener = make_screener(v, &context);

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
