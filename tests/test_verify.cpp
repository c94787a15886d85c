#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "core/screener.hpp"
#include "orbit/geometry.hpp"
#include "propagation/kepler_solver.hpp"
#include "propagation/two_body.hpp"
#include "util/constants.hpp"
#include "util/rng.hpp"
#include "verify/adversarial.hpp"
#include "verify/case_io.hpp"
#include "verify/differential.hpp"
#include "verify/oracle.hpp"
#include "verify/shrink.hpp"

#ifndef SCOD_CORPUS_DIR
#error "SCOD_CORPUS_DIR must be defined by the build"
#endif

namespace scod::verify {
namespace {

AdversarialConfig small_config(std::uint64_t seed) {
  AdversarialConfig config;
  config.seed = seed;
  config.background = 8;
  config.per_regime = 1;
  config.t_end = 900.0;
  return config;
}

// ---------------------------------------------------------------------------
// Adversarial generator

TEST(AdversarialGenerator, CoversEveryRegime) {
  const FuzzCase fuzz_case = generate_case(small_config(7));
  ASSERT_EQ(fuzz_case.satellites.size(), fuzz_case.regimes.size());

  std::set<OrbitRegime> seen(fuzz_case.regimes.begin(), fuzz_case.regimes.end());
  for (const OrbitRegime regime : kAllRegimes) {
    EXPECT_TRUE(seen.count(regime)) << regime_name(regime);
  }
  // 8 background + per_regime * (1 + 1 + 2 + 1 + 2 + 1 + 2) engineered
  // objects.
  EXPECT_EQ(fuzz_case.size(), 8u + 10u);
  // Ids are the dense indices of generation order, each exactly once.
  std::set<std::uint32_t> ids;
  for (const Satellite& sat : fuzz_case.satellites) ids.insert(sat.id);
  EXPECT_EQ(ids.size(), fuzz_case.size());
}

TEST(AdversarialGenerator, DeterministicInSeed) {
  const FuzzCase a = generate_case(small_config(42));
  const FuzzCase b = generate_case(small_config(42));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.satellites[i].elements, b.satellites[i].elements) << i;
  }
  const FuzzCase c = generate_case(small_config(43));
  bool any_different = c.size() != a.size();
  for (std::size_t i = 0; !any_different && i < a.size(); ++i) {
    any_different = !(a.satellites[i].elements == c.satellites[i].elements);
  }
  EXPECT_TRUE(any_different);
}

TEST(AdversarialGenerator, DeltaReferencesLiveIdsOnly) {
  const FuzzCase fuzz_case = generate_case(small_config(3));
  std::set<std::uint32_t> ids;
  for (const Satellite& sat : fuzz_case.satellites) ids.insert(sat.id);

  EXPECT_FALSE(fuzz_case.delta_updates.empty());
  for (const Satellite& sat : fuzz_case.delta_updates) {
    EXPECT_TRUE(ids.count(sat.id)) << sat.id;
  }
  for (const std::uint32_t id : fuzz_case.delta_removals) {
    EXPECT_TRUE(ids.count(id)) << id;
  }
  ASSERT_FALSE(fuzz_case.delta_adds.empty());
  for (const Satellite& sat : fuzz_case.delta_adds) {
    EXPECT_FALSE(ids.count(sat.id)) << sat.id;  // adds use fresh ids
  }
}

TEST(AdversarialGenerator, NearCoplanarGrazerPassesAtThePlantedDistance) {
  // The grazer's plane is tilted by exactly plane_angle, its perigee stays
  // above 6500 km, and at t_star it sits hypot(out-of-plane gap, offset)
  // from the target: the gap r sin(plane_angle) |sin(node_angle)| is normal
  // to its plane and the offset radial within it.
  KeplerElements target;
  target.semi_major_axis = 7000.0;
  target.eccentricity = 1e-4;
  target.inclination = 0.9;
  target.raan = 1.0;
  target.arg_perigee = 0.3;
  target.mean_anomaly = 2.0;
  const NewtonKeplerSolver solver;
  Rng rng(11);
  for (int k = 0; k < 40; ++k) {
    const double tilt = rng.uniform(0.002, 0.06);
    const double node_angle = rng.uniform(-0.05, 0.05);
    const double offset = rng.uniform(-3.0, 3.0);
    const double t_star = rng.uniform(0.0, 3600.0);
    const Satellite grazer = make_near_coplanar_grazer(
        target, t_star, tilt, node_angle, rng.uniform(0.3, 0.75), offset, rng, 1);
    EXPECT_NEAR(plane_angle(grazer.elements, target), tilt, 1e-9) << k;
    EXPECT_GE(perigee_radius(grazer.elements), 6500.0 - 1e-6) << k;

    const TwoBodyPropagator prop(std::vector<Satellite>{{0, target}, grazer}, solver);
    const double r = prop.position(0, t_star).norm();
    const double gap = r * std::sin(tilt) * std::abs(std::sin(node_angle));
    EXPECT_NEAR(prop.distance(0, 1, t_star), std::hypot(gap, offset), 1e-4) << k;
  }
}

TEST(AdversarialGenerator, RegimeNamesRoundTrip) {
  for (const OrbitRegime regime : kAllRegimes) {
    EXPECT_EQ(regime_from_name(regime_name(regime)), regime);
  }
  EXPECT_THROW(regime_from_name("banana"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Dense-scan oracle

TEST(Oracle, FindsHandBuiltEncounterAtKnownTimeAndDepth) {
  // A circular LEO target plus an interceptor engineered to pass 2 km from
  // it at t = 600 s: the oracle must report exactly that encounter.
  KeplerElements target;
  target.semi_major_axis = 7000.0;
  target.eccentricity = 1e-4;
  target.inclination = 0.9;
  target.raan = 1.0;
  target.arg_perigee = 0.3;
  target.mean_anomaly = 2.0;

  Rng rng(5);
  const Satellite interceptor = make_interceptor(target, 600.0, 2.0, rng, 1);
  const std::vector<Satellite> sats{{0, target}, interceptor};

  ScreeningConfig config;
  config.threshold_km = 5.0;
  config.t_begin = 0.0;
  config.t_end = 1200.0;

  const std::vector<Conjunction> events = oracle_conjunctions(sats, config);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].sat_a, 0u);
  EXPECT_EQ(events[0].sat_b, 1u);
  EXPECT_NEAR(events[0].tca, 600.0, 2.0);
  // The construction guarantees a sub-|offset| miss at t_star.
  EXPECT_LE(events[0].pca, 2.0 + 1e-6);
  EXPECT_GT(events[0].pca, 0.01);
}

TEST(Oracle, SilentOnWellSeparatedPair) {
  KeplerElements a;
  a.semi_major_axis = 7000.0;
  a.inclination = 0.9;
  KeplerElements b = a;
  b.semi_major_axis = 7300.0;  // 300 km of radial separation at all times

  ScreeningConfig config;
  config.threshold_km = 5.0;
  config.t_end = 1800.0;
  const std::vector<Satellite> sats{{0, a}, {1, b}};
  EXPECT_TRUE(oracle_conjunctions(sats, config).empty());
}

TEST(Oracle, ClampsSpanEdgeMinimumToBoundary) {
  // Coplanar pair 1.5 km apart that slowly drifts: the distance minimum
  // over the span sits exactly at t_begin and must be reported there.
  KeplerElements lead;
  lead.semi_major_axis = 7000.0;
  lead.inclination = 0.9;
  KeplerElements trail = lead;
  trail.semi_major_axis += 1.5;

  ScreeningConfig config;
  config.threshold_km = 5.0;
  config.t_end = 600.0;
  const std::vector<Satellite> sats{{0, lead}, {1, trail}};

  const std::vector<Conjunction> events = oracle_conjunctions(sats, config);
  ASSERT_FALSE(events.empty());
  EXPECT_NEAR(events[0].tca, config.t_begin, 1.0);
  EXPECT_NEAR(events[0].pca, 1.5, 0.1);
}

TEST(Oracle, SlackRecordsNearMissesAboveThreshold) {
  KeplerElements target;
  target.semi_major_axis = 7000.0;
  target.inclination = 1.1;
  target.mean_anomaly = 0.5;

  Rng rng(11);
  // 6 km miss: above the 5 km threshold but inside slack * threshold.
  const Satellite graze = make_interceptor(target, 400.0, 6.0, rng, 1);
  const std::vector<Satellite> sats{{0, target}, graze};

  ScreeningConfig config;
  config.threshold_km = 5.0;
  config.t_end = 800.0;

  OracleOptions tight;
  tight.slack = 1.0;
  EXPECT_TRUE(oracle_conjunctions(sats, config, tight).empty());

  OracleOptions slack;
  slack.slack = 1.5;
  const std::vector<Conjunction> events = oracle_conjunctions(sats, config, slack);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_GT(events[0].pca, config.threshold_km);
  EXPECT_LT(events[0].pca, slack.slack * config.threshold_km);
}

// ---------------------------------------------------------------------------
// Differential runner

TEST(Differential, CleanCaseAgreesAcrossAllVariants) {
  const CaseResult result = run_differential(generate_case(small_config(17)));
  EXPECT_TRUE(result.ok()) << result.divergences.size() << " divergence(s), first: "
                           << (result.divergences.empty()
                                   ? ""
                                   : result.divergences[0].detail);
  EXPECT_GT(result.oracle_events, 0u);  // the regimes guarantee activity
}

TEST(Differential, ScreensEveryListedVariant) {
  // A negative PCA tolerance turns every matched event into a mismatch, so
  // each variant the runner screens leaves its name on the result: grid
  // twice, once on each backend.
  DifferentialOptions options;
  options.tolerances.pca_tolerance = -1.0;
  options.check_service = false;
  const CaseResult result = run_differential(generate_case(small_config(17)), options);
  std::set<std::string> screened;
  for (const Divergence& d : result.divergences) screened.insert(d.screener);
  std::set<std::string> expected;
  for (const Variant v : kAllVariants) expected.insert(variant_name(v));
  expected.insert("grid-devicesim");
  EXPECT_EQ(screened, expected);
}

TEST(Differential, RunStatsAggregateAndSerializeToJson) {
  RunStats stats;
  CaseResult clean;
  clean.oracle_events = 3;
  clean.must_find = 2;
  clean.near_misses = 1;
  stats.add(clean);

  CaseResult bad = clean;
  bad.divergences.push_back({"grid", Divergence::Kind::kMissed, {}, "x"});
  bad.divergences.push_back({"legacy", Divergence::Kind::kSpurious, {}, "y"});
  stats.add(bad);

  EXPECT_EQ(stats.cases, 2u);
  EXPECT_EQ(stats.divergent_cases, 1u);
  EXPECT_EQ(stats.divergences, 2u);
  EXPECT_EQ(stats.oracle_events, 6u);

  const std::string json = stats.to_json();
  EXPECT_NE(json.find("\"cases\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"divergent_cases\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"grid\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"legacy\":1"), std::string::npos) << json;
}

// ---------------------------------------------------------------------------
// Shrinker

TEST(Shrinker, ConvergesToMinimalPairOnInjectedDivergence) {
  // Inject a synthetic divergence that depends on exactly two objects: the
  // shrinker must strip everything else and report a 1-minimal case.
  const FuzzCase fuzz_case = generate_case(small_config(29));
  const std::uint32_t id_a = fuzz_case.satellites[3].id;
  const std::uint32_t id_b = fuzz_case.satellites[11].id;
  const auto depends_on_pair = [&](const FuzzCase& candidate) {
    bool has_a = false, has_b = false;
    for (const Satellite& sat : candidate.satellites) {
      has_a |= sat.id == id_a;
      has_b |= sat.id == id_b;
    }
    return has_a && has_b;
  };

  const ShrinkResult result = shrink_case(fuzz_case, depends_on_pair);
  EXPECT_EQ(result.initial_objects, fuzz_case.size());
  EXPECT_EQ(result.minimized.size(), 2u);
  EXPECT_TRUE(depends_on_pair(result.minimized));
  EXPECT_GT(result.checks, 0u);
  // The window-narrowing phase must not produce an empty span.
  EXPECT_LT(result.minimized.config.t_begin, result.minimized.config.t_end);
}

TEST(Shrinker, PrunesDeltaRecordsOfDroppedObjects) {
  const FuzzCase fuzz_case = generate_case(small_config(31));
  ASSERT_FALSE(fuzz_case.delta_updates.empty());
  const std::uint32_t keep_a = fuzz_case.satellites[0].id;
  const std::uint32_t keep_b = fuzz_case.satellites[1].id;
  const auto predicate = [&](const FuzzCase& candidate) {
    bool has_a = false, has_b = false;
    for (const Satellite& sat : candidate.satellites) {
      has_a |= sat.id == keep_a;
      has_b |= sat.id == keep_b;
    }
    return has_a && has_b;
  };

  const FuzzCase minimized = shrink_case(fuzz_case, predicate).minimized;
  std::set<std::uint32_t> surviving;
  for (const Satellite& sat : minimized.satellites) surviving.insert(sat.id);
  for (const Satellite& sat : minimized.delta_updates) {
    EXPECT_TRUE(surviving.count(sat.id)) << sat.id;
  }
  for (const std::uint32_t id : minimized.delta_removals) {
    EXPECT_TRUE(surviving.count(id)) << id;
  }
}

TEST(Shrinker, RespectsCheckBudget) {
  const FuzzCase fuzz_case = generate_case(small_config(37));
  ShrinkOptions options;
  options.max_checks = 5;
  std::size_t calls = 0;
  const ShrinkResult result = shrink_case(
      fuzz_case,
      [&](const FuzzCase&) {
        ++calls;
        return true;
      },
      options);
  EXPECT_LE(result.checks, options.max_checks);
  EXPECT_LE(calls, options.max_checks);
  EXPECT_GE(result.minimized.size(), 2u);
}

// ---------------------------------------------------------------------------
// Case files

TEST(CaseIo, SaveLoadRoundTripsBitExactly) {
  const FuzzCase original = generate_case(small_config(53));
  const std::string path = testing::TempDir() + "/scod_verify_roundtrip.case";
  save_case(path, original);
  const FuzzCase loaded = load_case(path);

  EXPECT_EQ(loaded.seed, original.seed);
  EXPECT_EQ(loaded.config.threshold_km, original.config.threshold_km);
  EXPECT_EQ(loaded.config.t_begin, original.config.t_begin);
  EXPECT_EQ(loaded.config.t_end, original.config.t_end);
  EXPECT_EQ(loaded.config.seconds_per_sample, original.config.seconds_per_sample);

  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded.satellites[i].id, original.satellites[i].id);
    EXPECT_EQ(loaded.satellites[i].elements, original.satellites[i].elements) << i;
    EXPECT_EQ(loaded.regimes[i], original.regimes[i]) << i;
  }
  ASSERT_EQ(loaded.delta_updates.size(), original.delta_updates.size());
  for (std::size_t i = 0; i < original.delta_updates.size(); ++i) {
    EXPECT_EQ(loaded.delta_updates[i].elements, original.delta_updates[i].elements);
  }
  EXPECT_EQ(loaded.delta_removals, original.delta_removals);
  ASSERT_EQ(loaded.delta_adds.size(), original.delta_adds.size());
  std::remove(path.c_str());
}

TEST(CaseIo, ReplayedCaseScreensIdentically) {
  // The property deterministic replay rests on: a saved case produces the
  // same differential outcome as the in-memory original.
  const FuzzCase original = generate_case(small_config(59));
  const std::string path = testing::TempDir() + "/scod_verify_replay.case";
  save_case(path, original);
  const FuzzCase loaded = load_case(path);
  std::remove(path.c_str());

  const ScreeningConfig& config = original.config;
  const std::vector<Conjunction> a = oracle_conjunctions(original.satellites, config);
  const std::vector<Conjunction> b = oracle_conjunctions(loaded.satellites, config);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].sat_a, b[i].sat_a);
    EXPECT_EQ(a[i].sat_b, b[i].sat_b);
    EXPECT_EQ(a[i].tca, b[i].tca) << i;  // bit-exact, not just close
    EXPECT_EQ(a[i].pca, b[i].pca) << i;
  }
}

TEST(CaseIo, RejectsMalformedFiles) {
  const std::string path = testing::TempDir() + "/scod_verify_bad.case";
  {
    std::FILE* out = std::fopen(path.c_str(), "w");
    ASSERT_NE(out, nullptr);
    std::fputs("not a case file\n", out);
    std::fclose(out);
  }
  EXPECT_THROW(load_case(path), std::runtime_error);

  {
    std::FILE* out = std::fopen(path.c_str(), "w");
    ASSERT_NE(out, nullptr);
    std::fputs("scod-fuzz-case v1\nconfig 5 0 600 4\nwat 1 2 3\n", out);
    std::fclose(out);
  }
  EXPECT_THROW(load_case(path), std::runtime_error);
  std::remove(path.c_str());
  EXPECT_THROW(load_case(path), std::runtime_error);  // missing file
}

// ---------------------------------------------------------------------------
// Regression corpus: every saved case, one test each

TEST(Corpus, IsNotEmpty) { EXPECT_FALSE(list_corpus(SCOD_CORPUS_DIR).empty()); }

class CorpusReplay : public testing::TestWithParam<std::string> {};

TEST_P(CorpusReplay, AgreesWithTheOracle) {
  DifferentialOptions options;
  options.check_service = false;  // exercised by test_service / scod_fuzz
  options.check_counters = false;
  const CaseResult result =
      run_differential(load_case(SCOD_CORPUS_DIR "/" + GetParam()), options);
  for (const Divergence& d : result.divergences) {
    ADD_FAILURE() << "[" << d.screener << "/" << divergence_kind_name(d.kind) << "] "
                  << d.detail;
  }
}

/// The corpus' case file names, without their directory.
std::vector<std::string> corpus_files() {
  std::vector<std::string> files;
  for (const std::string& path : list_corpus(SCOD_CORPUS_DIR)) {
    files.push_back(path.substr(path.find_last_of('/') + 1));
  }
  return files;
}

/// The case file's stem with every character gtest does not allow in a
/// test name replaced by '_'.
std::string case_name(const testing::TestParamInfo<std::string>& info) {
  std::string name = info.param.substr(0, info.param.rfind(".case"));
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(Cases, CorpusReplay, testing::ValuesIn(corpus_files()),
                         case_name);

}  // namespace
}  // namespace scod::verify
