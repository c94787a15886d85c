#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/context.hpp"
#include "core/grid_pipeline.hpp"
#include "core/screen.hpp"
#include "filters/dense_scan.hpp"
#include "orbit/geometry.hpp"
#include "population/generator.hpp"
#include "propagation/contour_solver.hpp"
#include "propagation/two_body.hpp"
#include "scenario_helpers.hpp"
#include "spatial/cell.hpp"
#include "util/constants.hpp"
#include "util/rng.hpp"

namespace scod {
namespace {

std::vector<Satellite> small_shell(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Satellite> sats;
  for (std::size_t i = 0; i < n; ++i) {
    KeplerElements el;
    el.semi_major_axis = 7000.0 + rng.uniform(-5.0, 5.0);
    el.eccentricity = rng.uniform(0.0, 1e-4);
    el.inclination = rng.uniform(0.2, kPi - 0.2);
    el.raan = rng.uniform(0.0, kTwoPi);
    el.arg_perigee = rng.uniform(0.0, kTwoPi);
    el.mean_anomaly = rng.uniform(0.0, kTwoPi);
    sats.push_back({static_cast<std::uint32_t>(i), el});
  }
  return sats;
}

TEST(PipelineEdges, HostBudgetTooSmallThrows) {
  const auto sats = small_shell(500, 1);
  ScreeningConfig cfg;
  cfg.t_end = 600.0;
  cfg.memory_budget = 64 << 10;  // 64 KiB: not even one grid + candidate map
  EXPECT_THROW(screen(sats, cfg, Variant::kGrid), std::runtime_error);
}

TEST(PipelineEdges, DeviceMemorySizesThePlan) {
  // The devicesim capacity, not the host budget, must drive the sizing:
  // a tiny device forces multiple rounds even though the host budget is
  // huge, and the result stays correct.
  const auto sats = small_shell(200, 2);
  ScreeningConfig roomy;
  roomy.t_end = 1800.0;
  const auto reference = screen(sats, roomy, Variant::kGrid);

  DeviceProperties props;
  props.memory_bytes = 3 << 20;  // 3 MiB device
  Device tiny(props);
  ScreeningConfig dev_cfg = roomy;
  dev_cfg.device = &tiny;
  dev_cfg.memory_budget = 1ull << 40;  // irrelevant in device mode
  const auto constrained = screen(sats, dev_cfg, Variant::kGrid);

  EXPECT_GT(constrained.stats.rounds, 1u);
  ASSERT_EQ(constrained.conjunctions.size(), reference.conjunctions.size());
  for (std::size_t i = 0; i < reference.conjunctions.size(); ++i) {
    EXPECT_EQ(constrained.conjunctions[i].sat_a, reference.conjunctions[i].sat_a);
    EXPECT_NEAR(constrained.conjunctions[i].tca, reference.conjunctions[i].tca, 1e-3);
  }
  EXPECT_EQ(tiny.memory_used(), 0u);  // everything released
}

TEST(PipelineEdges, DeviceTooSmallThrows) {
  const auto sats = small_shell(2000, 3);
  DeviceProperties props;
  props.memory_bytes = 64 << 10;  // 64 KiB device
  Device tiny(props);
  ScreeningConfig cfg;
  cfg.t_end = 600.0;
  cfg.device = &tiny;
  EXPECT_THROW(screen(sats, cfg, Variant::kGrid), std::runtime_error);
}

TEST(PipelineEdges, HeoApogeesBeyondCubeAreClampedSafely) {
  // Objects whose apogee leaves the (85,000 km)^3 cube clamp into the
  // boundary cells. Distant clamped objects may share a boundary cell,
  // but the distance prefilter / refinement must never turn that into a
  // false conjunction — and the run must not crash or hang.
  std::vector<Satellite> sats;
  // Two GTO-like orbits with apogee ~ 80,000 km in different planes.
  sats.push_back({0, {44000.0, 0.84, 0.4, 0.0, 0.0, 0.0}});
  sats.push_back({1, {44000.0, 0.84, 1.2, 2.0, 1.0, 0.1}});
  // And a LEO pair for contrast.
  sats.push_back({2, {7000.0, 1e-4, 0.5, 0.0, 0.0, 0.0}});
  sats.push_back({3, {7200.0, 1e-4, 1.5, 1.0, 0.0, 1.0}});

  ScreeningConfig cfg;
  cfg.t_end = 20000.0;
  const auto report = screen(sats, cfg, Variant::kGrid);

  // Oracle check: no pair actually approaches within the threshold.
  const ContourKeplerSolver solver;
  const TwoBodyPropagator prop(sats, solver);
  for (const Conjunction& c : report.conjunctions) {
    const double d = prop.distance(c.sat_a, c.sat_b, c.tca);
    EXPECT_LE(d, cfg.threshold_km + 1e-6)
        << "false conjunction " << c.sat_a << "-" << c.sat_b;
  }
}

TEST(PipelineEdges, EncounterAtSpanStartIsReported) {
  // An approach already at its minimum at t_begin: the clamped edge
  // minimum must be reported (Section IV-C span-boundary rule).
  Rng rng(0xE0);
  KeplerElements target{7000.0, 1e-4, 0.8, 0.2, 0.0, 0.7};
  std::vector<Satellite> sats{{0, target}};
  sats.push_back(testutil::make_interceptor(target, 0.0, 1.0, rng, 1));

  ScreeningConfig cfg;
  cfg.t_end = 1200.0;
  const auto report = screen(sats, cfg, Variant::kGrid);
  bool found = false;
  for (const Conjunction& c : report.conjunctions) {
    if (c.tca < 10.0 && c.pca < 2.0) found = true;
  }
  EXPECT_TRUE(found);
}

/// A population of `count` objects that fails the test if any position,
/// state or element is asked for: the pipeline must reject an oversize
/// input before it propagates or allocates anything.
class UntouchablePropagator final : public Propagator {
 public:
  explicit UntouchablePropagator(std::size_t count) : count_(count) {}

  std::size_t size() const override { return count_; }
  Vec3 position(std::size_t, double) const override {
    ADD_FAILURE() << "position() called";
    return {};
  }
  StateVector state(std::size_t, double) const override {
    ADD_FAILURE() << "state() called";
    return {};
  }
  const KeplerElements& elements(std::size_t) const override {
    ADD_FAILURE() << "elements() called";
    return elements_;
  }

 private:
  std::size_t count_;
  KeplerElements elements_;
};

TEST(PipelineEdges, RejectsMoreSatellitesThanCandidateKeysHold) {
  // Candidate keys hold 20-bit satellite indices: 2^20 + 1 objects must
  // be refused up front, not by pack_candidate deep inside detection.
  const UntouchablePropagator propagator((std::size_t{1} << 20) + 1);
  ScreeningConfig cfg;
  cfg.seconds_per_sample = GridScreener::kDefaultSecondsPerSample;
  ScreeningContext context;
  EXPECT_THROW(run_grid_pipeline(propagator, cfg, ConjunctionCountModel::paper_grid(),
                                 {}, context),
               std::invalid_argument);
  EXPECT_EQ(context.arena().stats().grid_rebuilds, 0u);
  EXPECT_EQ(context.arena().memory_bytes(), 0u);
  EXPECT_THROW(GridScreener().screen(propagator, cfg), std::invalid_argument);
  EXPECT_THROW(HybridScreener().screen(propagator, cfg), std::invalid_argument);
}

TEST(PipelineEdges, RejectsMoreSampleStepsThanCandidateKeysHold) {
  // Candidate keys hold 24-bit sample steps: a 2e7 s span at 1 s sampling
  // is over 2^24 steps and must be refused before anything is allocated.
  // Spans far beyond the limit are refused by the same check, before the
  // sizing model turns them into candidate counts.
  const auto sats = small_shell(2, 6);
  const ContourKeplerSolver solver;
  const TwoBodyPropagator propagator(sats, solver);
  for (const auto& [t_end, sps] : {std::pair{2e7, 1.0}, std::pair{1e12, 4.0},
                                   std::pair{1e300, 4.0}}) {
    ScreeningConfig cfg;
    cfg.t_end = t_end;
    cfg.seconds_per_sample = sps;
    ScreeningContext context;
    try {
      run_grid_pipeline(propagator, cfg, ConjunctionCountModel::paper_grid(), {},
                        context);
      ADD_FAILURE() << "expected std::invalid_argument for t_end " << t_end;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("2^24"), std::string::npos) << e.what();
    }
    EXPECT_EQ(context.arena().stats().grid_rebuilds, 0u);
    EXPECT_EQ(context.arena().memory_bytes(), 0u);
  }
}

TEST(PipelineEdges, RequiresAPositiveSamplePeriod) {
  // The variants fill in their default; a direct caller must set one.
  const auto sats = small_shell(4, 7);
  const ContourKeplerSolver solver;
  const TwoBodyPropagator propagator(sats, solver);
  ScreeningConfig cfg;
  ScreeningContext context;
  EXPECT_THROW(run_grid_pipeline(propagator, cfg, ConjunctionCountModel::paper_grid(),
                                 {}, context),
               std::invalid_argument);
  EXPECT_EQ(with_sample_period(cfg, 16.0).seconds_per_sample, 16.0);
  cfg.seconds_per_sample = 8.0;
  EXPECT_EQ(with_sample_period(cfg, 16.0).seconds_per_sample, 8.0);
}

TEST(PipelineEdges, HalfStencilCandidatesMatchFullNeighbourScan) {
  // The paper's detection scans each occupied cell against all 26
  // neighbours and lets the conjunction map drop the second copy of each
  // pair. Enumerate that by brute force: every pair in the same or an
  // adjacent cell at a step, kept when it passes the distance prefilter.
  // The half-stencil pipeline must produce exactly this distinct set.
  const KeplerElements parent{7000.0, 0.001, 1.0, 0.5, 0.2, 1.0};
  const auto cloud = generate_debris_cloud(parent, 60, 0.05, 7);
  const ContourKeplerSolver solver;
  const TwoBodyPropagator propagator(cloud, solver);
  ScreeningConfig cfg;
  cfg.threshold_km = 2.0;
  cfg.t_end = 600.0;
  cfg.seconds_per_sample = GridScreener::kDefaultSecondsPerSample;

  ScreeningContext context;
  const GridPipelineResult result = run_grid_pipeline(
      propagator, cfg, ConjunctionCountModel::paper_grid(), {}, context);

  const std::size_t n = cloud.size();
  const CellIndexer indexer(result.cell_size);
  const double half_sps = 0.5 * result.sample_period;
  std::vector<double> vmax(n);
  for (std::size_t i = 0; i < n; ++i) vmax[i] = max_speed(cloud[i].elements);

  std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>> expected;
  std::size_t same_cell = 0, adjacent_cell = 0, prefiltered = 0;
  for (std::uint32_t step = 0; step < result.plan.total_samples; ++step) {
    const double t = result.sample_time(step, cfg.t_begin, cfg.t_end);
    std::vector<Vec3> pos(n);
    std::vector<CellCoord> cell(n);
    for (std::size_t i = 0; i < n; ++i) {
      pos[i] = propagator.position(i, t);
      cell[i] = indexer.cell_of(pos[i]);
    }
    for (std::uint32_t a = 0; a + 1 < n; ++a) {
      for (std::uint32_t b = a + 1; b < n; ++b) {
        const CellCoord d{cell[b].x - cell[a].x, cell[b].y - cell[a].y,
                          cell[b].z - cell[a].z};
        if (std::abs(d.x) > 1 || std::abs(d.y) > 1 || std::abs(d.z) > 1) continue;
        const double cutoff = cfg.threshold_km + half_sps * (vmax[a] + vmax[b]);
        if ((pos[a] - pos[b]).norm2() > cutoff * cutoff) {
          ++prefiltered;
          continue;
        }
        ++(d == CellCoord{} ? same_cell : adjacent_cell);
        expected.insert({a, b, step});
      }
    }
  }
  // The population must exercise the self cell, the neighbour offsets and
  // the prefilter, or the comparison below proves little.
  EXPECT_GT(same_cell, 0u);
  EXPECT_GT(adjacent_cell, 0u);
  EXPECT_GT(prefiltered, 0u);

  std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>> found;
  for (const Candidate& c : result.candidates) {
    EXPECT_TRUE(found.insert({c.sat_a, c.sat_b, c.step}).second)
        << "duplicate candidate " << c.sat_a << "-" << c.sat_b << " @ " << c.step;
  }
  EXPECT_EQ(found.size(), result.candidates.size());
  EXPECT_EQ(found, expected);
}

TEST(PipelineEdges, HybridHalfStencilMatchesFull) {
  // The hybrid variant's grid front-end scans each pair of neighbouring
  // cells once; its report must still match an exhaustive dense scan of
  // every pair.
  auto sats = small_shell(40, 4);
  Rng rng(0x4B1D);
  for (std::uint32_t k = 0; k < 6; ++k) {
    const auto target = rng.uniform_index(sats.size());
    sats.push_back(testutil::make_interceptor(
        sats[target].elements, rng.uniform(400.0, 3600.0), rng.uniform(-3.5, 3.5),
        rng, static_cast<std::uint32_t>(40 + k)));
  }
  ScreeningConfig cfg;
  cfg.threshold_km = 5.0;
  cfg.t_end = 4000.0;
  const auto report = HybridScreener().screen(sats, cfg);

  const ContourKeplerSolver solver;
  const TwoBodyPropagator propagator(sats, solver);
  DenseScanOptions scan;
  scan.step = 4.0;
  std::size_t must_find = 0;
  for (std::uint32_t a = 0; a + 1 < sats.size(); ++a) {
    for (std::uint32_t b = a + 1; b < sats.size(); ++b) {
      const auto encounters = scan_encounters(propagator, a, b, cfg.t_begin,
                                              cfg.t_end, scan);
      const auto near = [&](const Conjunction& c, const Encounter& e) {
        return c.sat_a == a && c.sat_b == b && std::abs(c.tca - e.tca) <= 5.0;
      };
      // Completeness for encounters comfortably under the threshold.
      for (const Encounter& e : encounters) {
        if (e.pca > 0.9 * cfg.threshold_km) continue;
        ++must_find;
        EXPECT_TRUE(std::any_of(report.conjunctions.begin(), report.conjunctions.end(),
                                [&](const Conjunction& c) { return near(c, e); }))
            << "missed " << a << "-" << b << " @ " << e.tca << " pca=" << e.pca;
      }
      // Soundness: each reported conjunction is a real encounter.
      for (const Conjunction& c : report.conjunctions) {
        if (c.sat_a != a || c.sat_b != b) continue;
        EXPECT_LE(c.pca, cfg.threshold_km);
        EXPECT_TRUE(std::any_of(encounters.begin(), encounters.end(),
                                [&](const Encounter& e) { return near(c, e); }))
            << "invented " << a << "-" << b << " @ " << c.tca;
      }
    }
  }
  EXPECT_GE(must_find, 3u);
}

TEST(PipelineEdges, StreamingWithSingleRoundStillWorks) {
  // Degenerate streaming: everything fits into one round; the sink gets
  // exactly one callback carrying all conjunctions.
  const auto sats = small_shell(40, 5);
  ScreeningConfig cfg;
  cfg.threshold_km = 5.0;
  cfg.t_end = 3000.0;

  const ContourKeplerSolver solver;
  const TwoBodyPropagator prop(sats, solver);
  const GridScreener screener;
  const auto batch = screener.screen(prop, cfg);

  std::size_t callbacks = 0;
  std::size_t streamed = 0;
  const auto report = screener.screen_streaming(
      prop, cfg, [&](std::size_t, std::span<const Conjunction> out) {
        ++callbacks;
        streamed += out.size();
      });
  EXPECT_EQ(report.stats.rounds, 1u);
  EXPECT_EQ(callbacks, 1u);
  EXPECT_EQ(streamed, batch.conjunctions.size());
}

}  // namespace
}  // namespace scod
