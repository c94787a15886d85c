#include <gtest/gtest.h>

#include <cmath>

#include "model/conjunction_model.hpp"
#include "model/powerlaw_fit.hpp"
#include "model/sizing.hpp"
#include "spatial/conjunction_set.hpp"
#include "spatial/grid_hash_set.hpp"
#include "util/rng.hpp"

namespace scod {
namespace {

TEST(ConjunctionModel, PaperEquationsEvaluate) {
  // Eq. (3): c' = 2.32e-9 * n^2 * s^(4/3) * t * d^(7/4).
  const auto grid = ConjunctionCountModel::paper_grid();
  const double expected = 2.32e-9 * 64000.0 * 64000.0 * std::pow(9.0, 4.0 / 3.0) *
                          86400.0 * std::pow(2.0, 7.0 / 4.0);
  EXPECT_NEAR(grid.predict(64000.0, 9.0, 86400.0, 2.0), expected, expected * 1e-12);

  // Eq. (4) has a linear threshold exponent; for d > 1 the grid model
  // (d^{7/4}) predicts more candidates than the hybrid one, all else equal.
  const auto hybrid = ConjunctionCountModel::paper_hybrid();
  EXPECT_LT(hybrid.predict(64000.0, 9.0, 86400.0, 2.0) / std::pow(9.0, 5.0 / 3.0),
            grid.predict(64000.0, 9.0, 86400.0, 2.0) / std::pow(9.0, 4.0 / 3.0));
}

TEST(ConjunctionModel, CapacityHasFloorAndHeadroom) {
  const auto model = ConjunctionCountModel::paper_grid();
  // Tiny populations: floor of 10,000, doubled once.
  EXPECT_EQ(candidate_capacity_from_model(model, 10.0, 1.0, 60.0, 2.0), 20000u);
  // Large populations: model-driven, doubled.
  const double predicted = model.predict(1.0e6, 9.0, 86400.0, 2.0);
  const auto cap = candidate_capacity_from_model(model, 1.0e6, 9.0, 86400.0, 2.0);
  EXPECT_GE(cap, static_cast<std::size_t>(predicted));
  EXPECT_LE(cap, static_cast<std::size_t>(2.0 * predicted) + 2);
}

TEST(Sizing, SampleCountsFollowEquations) {
  SizingRequest req;
  req.satellites = 1000;
  req.span_seconds = 3600.0;
  req.seconds_per_sample = 4.0;
  req.candidate_capacity = 10000;
  req.memory_budget = 1ull << 30;
  const SizingPlan plan = plan_samples(req);
  EXPECT_TRUE(plan.fits);
  EXPECT_EQ(plan.total_samples, 901u);  // ceil(3600/4) + 1
  EXPECT_GE(plan.parallel_samples, 1u);
  EXPECT_EQ(plan.rounds,
            (plan.total_samples + plan.parallel_samples - 1) / plan.parallel_samples);
  EXPECT_GT(plan.per_grid_bytes, 0u);
  EXPECT_GT(plan.fixed_bytes, 0u);
}

TEST(Sizing, TightBudgetReducesParallelism) {
  SizingRequest req;
  req.satellites = 10000;
  req.span_seconds = 7200.0;
  req.seconds_per_sample = 1.0;
  req.candidate_capacity = 10000;
  req.memory_budget = 1ull << 40;
  const SizingPlan roomy = plan_samples(req);
  EXPECT_EQ(roomy.rounds, 1u);  // everything fits at once

  req.memory_budget = roomy.fixed_bytes + 4 * roomy.per_grid_bytes;
  const SizingPlan tight = plan_samples(req);
  EXPECT_TRUE(tight.fits);
  EXPECT_EQ(tight.parallel_samples, 4u);
  EXPECT_GT(tight.rounds, 1000u);
}

TEST(Sizing, ReportsWhenNothingFits) {
  SizingRequest req;
  req.satellites = 1000000;
  req.span_seconds = 3600.0;
  req.seconds_per_sample = 1.0;
  req.candidate_capacity = 10000;
  req.memory_budget = 1 << 20;  // 1 MiB: not even one grid
  const SizingPlan plan = plan_samples(req);
  EXPECT_FALSE(plan.fits);
  EXPECT_EQ(plan.parallel_samples, 0u);
}

TEST(Sizing, CandidateMapBytesGrowWithCapacity) {
  EXPECT_GT(CandidateSet::projected_memory_bytes(100000),
            CandidateSet::projected_memory_bytes(1000));
  // Slot table is 2x capacity rounded to a power of two, 8 bytes a slot.
  EXPECT_EQ(CandidateSet::projected_memory_bytes(1000), 2048u * 8u);
}

TEST(Sizing, ModelAgreesWithTheStructures) {
  // The plan's per-grid bytes are what one GridHashSet of n entries
  // occupies, and its fixed bytes are n * (a_s + a_k) plus what the
  // CandidateSet of the requested capacity occupies.
  EXPECT_EQ(kSatelliteBytes, 56u);
  EXPECT_EQ(kKeplerCacheBytes, 112u);
  for (const std::size_t n : {1u, 2u, 1000u, 65535u, 65536u}) {
    for (const std::size_t capacity : {1u, 1023u, 1024u, 1025u, 32767u, 32768u, 32769u}) {
      SizingRequest req;
      req.satellites = n;
      req.span_seconds = 600.0;
      req.seconds_per_sample = 4.0;
      req.candidate_capacity = capacity;
      req.memory_budget = 4ull << 30;
      const SizingPlan plan = plan_samples(req);
      ASSERT_TRUE(plan.fits);
      EXPECT_EQ(plan.per_grid_bytes, GridHashSet(n).memory_bytes()) << n;
      EXPECT_EQ(plan.fixed_bytes - n * (kSatelliteBytes + kKeplerCacheBytes),
                CandidateSet(capacity).memory_bytes())
          << n << " " << capacity;
    }
  }
}

TEST(AutoAdjust, KeepsSpsWhenMemoryIsAmple) {
  SizingRequest req;
  req.satellites = 4000;
  req.span_seconds = 7200.0;
  req.seconds_per_sample = 9.0;
  req.memory_budget = 4ull << 30;
  const auto result =
      auto_adjust_sps(ConjunctionCountModel::paper_grid(), req, 2.0);
  EXPECT_TRUE(result.feasible);
  EXPECT_FALSE(result.changed);
  EXPECT_DOUBLE_EQ(result.seconds_per_sample, 9.0);
}

TEST(AutoAdjust, ReducesSpsUnderMemoryPressure) {
  // An inflated model makes the candidate map the dominant consumer, so
  // the adjustment must shrink s_ps (fewer candidates per Eq. 3) — the
  // paper's 9 -> 4 -> 1 behaviour at 512k/1024k satellites.
  ConjunctionCountModel model = ConjunctionCountModel::paper_grid();
  model.coefficient = 2.32e-7;  // a hundred times more candidates

  SizingRequest req;
  req.satellites = 50000;
  req.span_seconds = 7200.0;
  req.seconds_per_sample = 9.0;
  req.memory_budget = 2ull << 30;
  const auto result = auto_adjust_sps(model, req, 2.0);
  EXPECT_TRUE(result.feasible);
  EXPECT_TRUE(result.changed);
  EXPECT_LT(result.seconds_per_sample, 9.0);
  EXPECT_GE(result.seconds_per_sample, 1.0);
}

TEST(AutoAdjust, ReportsInfeasibleAtFloor) {
  ConjunctionCountModel model = ConjunctionCountModel::paper_grid();
  model.coefficient = 1.0;  // absurd

  SizingRequest req;
  req.satellites = 100000;
  req.span_seconds = 86400.0;
  req.seconds_per_sample = 9.0;
  req.memory_budget = 1ull << 30;
  const auto result = auto_adjust_sps(model, req, 2.0);
  EXPECT_FALSE(result.feasible);
}

TEST(PowerLawFit, RecoversSyntheticExponents) {
  // Generate y = 3.0e-7 * n^2 * s^(4/3) * d^(7/4) with light noise and
  // check the Extra-P-style grid search recovers the exponents exactly.
  Rng rng(13);
  std::vector<FitObservation> obs;
  for (double n : {1000.0, 2000.0, 4000.0, 8000.0}) {
    for (double s : {1.0, 2.0, 4.0, 9.0}) {
      for (double d : {0.5, 1.0, 2.0, 5.0}) {
        const double y = 3.0e-7 * n * n * std::pow(s, 4.0 / 3.0) *
                         std::pow(d, 7.0 / 4.0) * (1.0 + 0.01 * rng.gaussian());
        obs.push_back({{n, s, d}, y});
      }
    }
  }
  const PowerLawFit fit = fit_power_law(obs, 3);
  ASSERT_EQ(fit.exponents.size(), 3u);
  EXPECT_DOUBLE_EQ(fit.exponents[0], 2.0);
  EXPECT_DOUBLE_EQ(fit.exponents[1], 4.0 / 3.0);
  EXPECT_DOUBLE_EQ(fit.exponents[2], 7.0 / 4.0);
  EXPECT_NEAR(fit.coefficient, 3.0e-7, 3.0e-8);
  EXPECT_GT(fit.r_squared, 0.999);
}

TEST(PowerLawFit, PredictsFromFit) {
  std::vector<FitObservation> obs;
  for (double x : {1.0, 2.0, 4.0, 8.0, 16.0}) obs.push_back({{x}, 5.0 * x * x});
  const PowerLawFit fit = fit_power_law(obs, 1);
  EXPECT_DOUBLE_EQ(fit.exponents[0], 2.0);
  EXPECT_NEAR(fit.predict({10.0}), 500.0, 1.0);
}

TEST(PowerLawFit, SkipsNonPositiveObservations) {
  std::vector<FitObservation> obs;
  obs.push_back({{1.0}, 0.0});   // skipped (log undefined)
  obs.push_back({{-2.0}, 4.0});  // skipped (negative input)
  for (double x : {1.0, 2.0, 4.0}) obs.push_back({{x}, 2.0 * x});
  const PowerLawFit fit = fit_power_law(obs, 1);
  EXPECT_DOUBLE_EQ(fit.exponents[0], 1.0);
  EXPECT_NEAR(fit.coefficient, 2.0, 1e-9);
}

TEST(PowerLawFit, RejectsDegenerateInput) {
  EXPECT_THROW(fit_power_law({}, 1), std::invalid_argument);
  std::vector<FitObservation> one{{{1.0}, 2.0}};
  EXPECT_THROW(fit_power_law(one, 1), std::invalid_argument);
  std::vector<FitObservation> mismatch{{{1.0, 2.0}, 2.0}, {{1.0}, 3.0}};
  EXPECT_THROW(fit_power_law(mismatch, 1), std::invalid_argument);
}

TEST(PowerLawFit, ExponentGridContainsPaperValues) {
  const auto grid = extrap_exponent_grid();
  auto contains = [&](double v) {
    for (double g : grid) {
      if (std::abs(g - v) < 1e-12) return true;
    }
    return false;
  };
  EXPECT_TRUE(contains(2.0));
  EXPECT_TRUE(contains(4.0 / 3.0));
  EXPECT_TRUE(contains(5.0 / 3.0));
  EXPECT_TRUE(contains(7.0 / 4.0));
  EXPECT_TRUE(contains(1.0));
}

}  // namespace
}  // namespace scod
