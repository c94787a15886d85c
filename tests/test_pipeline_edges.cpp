#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/grid_pipeline.hpp"
#include "core/hybrid_screener.hpp"
#include "core/screen.hpp"
#include "filters/dense_scan.hpp"
#include "model/sizing.hpp"
#include "parallel/device.hpp"
#include "orbit/geometry.hpp"
#include "pca/refine.hpp"
#include "population/generator.hpp"
#include "propagation/contour_solver.hpp"
#include "propagation/two_body.hpp"
#include "scenario_helpers.hpp"
#include "service/screening_service.hpp"
#include "spatial/cell.hpp"
#include "spatial/cell_list.hpp"
#include "spatial/grid_hash_set.hpp"
#include "util/constants.hpp"
#include "util/rng.hpp"

namespace scod {
namespace {

/// A round sink for the calls that only check what the pipeline throws.
void discard_round(std::size_t, std::span<const std::uint64_t>,
                   const GridPipelineResult&) {}

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
  cfg.memory_budget = 64 << 10;  // 64 KiB: not even the fixed data
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

TEST(PipelineEdges, DeviceCandidateGrowBeyondFreeMemoryThrowsBudgetExceeded) {
  // The plan reserves no device memory for a candidate-buffer grow. On a
  // device the plan fills with tables, a round that outgrows an undersized
  // count model's buffer must fail with MemoryBudgetExceeded, naming the
  // bytes the grown buffer needs and those free, not with the device's
  // own allocation error. The CPU screens the same population in the same
  // budget: its workers keep their own key lists, which never fill.
  const KeplerElements parent{7000.0, 0.001, 1.0, 0.5, 0.2, 1.0};
  const auto cloud = generate_debris_cloud(parent, 80, 0.05, 99);
  const ContourKeplerSolver solver;
  const TwoBodyPropagator propagator(cloud, solver);
  ScreeningConfig cfg;
  cfg.threshold_km = 20.0;  // most of the cloud's pairs stay within reach
  cfg.t_end = 600.0;
  cfg.seconds_per_sample = GridScreener::kDefaultSecondsPerSample;
  ConjunctionCountModel tiny = ConjunctionCountModel::paper_grid();
  tiny.coefficient = 1e-20;  // the 20 000-candidate floor

  // A device holding the fixed data and 100 grids: the first round's 100
  // steps overflow the floor.
  SizingRequest request;
  request.satellites = cloud.size();
  request.grid_entries = cloud.size();
  request.span_seconds = cfg.span_seconds();
  request.seconds_per_sample = cfg.seconds_per_sample;
  request.candidate_capacity = candidate_capacity_from_model(
      tiny, static_cast<double>(cloud.size()), cfg.seconds_per_sample, cfg.span_seconds(),
      cfg.threshold_km);
  const SizingPlan plan = plan_samples(request);
  DeviceProperties props;
  props.memory_bytes = plan.fixed_bytes + 100 * plan.per_grid_bytes;
  ThreadPool four(4);
  Device device(props, &four);

  GridPipelineResult cpu;
  ScreeningConfig host = cfg;
  host.pool = &four;
  host.memory_budget = props.memory_bytes;
  testutil::pipeline_candidates(propagator, host, tiny, {}, cpu);
  EXPECT_EQ(cpu.candidate_set_growths, 0u);
  EXPECT_GT(cpu.total_candidates, 20000u);

  ScreeningConfig on_device = host;
  on_device.device = &device;
  try {
    run_grid_pipeline(propagator, on_device, tiny, {}, discard_round);
    ADD_FAILURE() << "the grow fitted into the device";
  } catch (const MemoryBudgetExceeded& e) {
    const std::string what = e.what();
    const std::string needed =
        std::to_string(CandidateBuffer::projected_memory_bytes(2 * 20000));
    EXPECT_NE(what.find("needs " + needed + " B of device memory"), std::string::npos)
        << what;
    EXPECT_NE(what.find(" B free"), std::string::npos) << what;
  }
  EXPECT_EQ(device.memory_used(), 0u);  // everything released
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
  // Fixed ellipses, so hybrid gets as far as the size check.
  bool fixed_elements() const override { return true; }

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
  EXPECT_THROW(run_grid_pipeline(propagator, cfg, ConjunctionCountModel::paper_grid(),
                                 {}, discard_round),
               std::invalid_argument);
  EXPECT_THROW(GridScreener().screen(propagator, cfg), std::invalid_argument);
  EXPECT_THROW(HybridScreener().screen(propagator, cfg), std::invalid_argument);
}

TEST(PipelineEdges, RejectsMoreSampleStepsThanCandidateKeysHold) {
  // Candidate keys hold 24-bit sample steps: a 2e7 s span at 1 s sampling
  // is over 2^24 steps and must be refused before anything is allocated.
  // Spans far beyond the limit are refused by the same check, before the
  // sizing model turns them into candidate counts. The population is
  // untouchable: the refusal comes before step 1 reads a single element.
  const UntouchablePropagator propagator(2);
  for (const auto& [t_end, sps] : {std::pair{2e7, 1.0}, std::pair{1e12, 4.0},
                                   std::pair{1e300, 4.0}}) {
    ScreeningConfig cfg;
    cfg.t_end = t_end;
    cfg.seconds_per_sample = sps;
    try {
      run_grid_pipeline(propagator, cfg, ConjunctionCountModel::paper_grid(), {},
                        discard_round);
      ADD_FAILURE() << "expected std::invalid_argument for t_end " << t_end;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("2^24"), std::string::npos) << e.what();
    }
  }
}

TEST(PipelineEdges, RequiresAPositiveSamplePeriod) {
  // The variants fill in their default; a direct caller must set one.
  const auto sats = small_shell(4, 7);
  const ContourKeplerSolver solver;
  const TwoBodyPropagator propagator(sats, solver);
  ScreeningConfig cfg;
  EXPECT_THROW(run_grid_pipeline(propagator, cfg, ConjunctionCountModel::paper_grid(),
                                 {}, discard_round),
               std::invalid_argument);
  EXPECT_EQ(with_sample_period(cfg, 16.0).seconds_per_sample, 16.0);
  cfg.seconds_per_sample = 8.0;
  EXPECT_EQ(with_sample_period(cfg, 16.0).seconds_per_sample, 8.0);
}

TEST(PipelineEdges, HalfStencilCandidatesMatchFullNeighbourScan) {
  // The paper's detection scans each occupied cell against all 26
  // neighbours and lets the conjunction map drop the second copy of each
  // pair. Enumerate that by brute force: every pair in the same or an
  // adjacent cell at a step, kept when it passes the distance prefilter
  // and the reach test (on states from state()). The half-stencil
  // pipeline must produce exactly this set, each once: through the
  // cell-list sweep on 1 and 4 threads, and through the paper's hash grid
  // on devicesim.
  const KeplerElements parent{7000.0, 0.001, 1.0, 0.5, 0.2, 1.0};
  const auto cloud = generate_debris_cloud(parent, 60, 0.05, 7);
  const ContourKeplerSolver solver;
  const TwoBodyPropagator propagator(cloud, solver);
  ScreeningConfig cfg;
  cfg.threshold_km = 2.0;
  cfg.t_end = 600.0;
  cfg.seconds_per_sample = GridScreener::kDefaultSecondsPerSample;

  ThreadPool one(1), four(4);
  Device device(DeviceProperties{}, &four);
  const auto run = [&](ThreadPool* pool, Device* dev, GridPipelineResult& result) {
    ScreeningConfig c = cfg;
    c.pool = pool;
    c.device = dev;
    return testutil::pipeline_candidates(propagator, c, ConjunctionCountModel::paper_grid(),
                                         {}, result);
  };
  GridPipelineResult result;
  run(&one, nullptr, result);

  const std::size_t n = cloud.size();
  const CellIndexer indexer(result.cell_size);
  const double half_sps = 0.5 * result.sample_period;
  std::vector<double> vmax(n);
  for (std::size_t i = 0; i < n; ++i) vmax[i] = max_speed(cloud[i].elements);

  std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>> expected;
  std::size_t same_cell = 0, adjacent_cell = 0, prefiltered = 0, out_of_range = 0;
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
        if (out_of_reach(propagator.state(a, t), propagator.state(b, t),
                         propagator.max_acceleration(a) + propagator.max_acceleration(b),
                         std::min(perigee_radius(cloud[a].elements),
                                  perigee_radius(cloud[b].elements)),
                         t, result.cell_size, cfg.threshold_km, cfg.t_begin, cfg.t_end)) {
          ++out_of_range;
          continue;
        }
        ++(d == CellCoord{} ? same_cell : adjacent_cell);
        expected.insert({a, b, step});
      }
    }
  }
  // The population must exercise the self cell, the neighbour offsets, the
  // prefilter and the reach test, or the comparison below proves little.
  EXPECT_GT(same_cell, 0u);
  EXPECT_GT(adjacent_cell, 0u);
  EXPECT_GT(prefiltered, 0u);
  EXPECT_GT(out_of_range, 0u);

  // pipeline_candidates fails the test if any (pair, step) repeats.
  for (const auto& [pool, dev, label] :
       {std::tuple{&one, static_cast<Device*>(nullptr), "1 thread"},
        std::tuple{&four, static_cast<Device*>(nullptr), "4 threads"},
        std::tuple{&four, &device, "devicesim"}}) {
    GridPipelineResult backend;
    const std::vector<Candidate> candidates = run(pool, dev, backend);
    std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>> found;
    for (const Candidate& c : candidates) found.insert({c.sat_a, c.sat_b, c.step});
    EXPECT_EQ(found.size(), candidates.size()) << label;
    EXPECT_EQ(found, expected) << label;
  }
}

TEST(PipelineEdges, DirtyMaskKeepsExactlyTheCandidatesWithADirtyMember) {
  // A masked screen registers the dirty objects in their 27 cells and looks
  // every object up in its own cell; it must find exactly the unmasked
  // screen's candidates that have a dirty member, on any thread count: all
  // of them under an all-ones mask, none under an all-zeros mask. (At
  // d = 5 km and a fifth of the cloud dirty, enough of its pairs stay
  // within reach to leave dirty-dirty candidates under the random mask.)
  const KeplerElements parent{7000.0, 0.001, 1.0, 0.5, 0.2, 1.0};
  const auto sats = generate_debris_cloud(parent, 200, 0.05, 7);
  const std::size_t n = sats.size();
  const ContourKeplerSolver solver;
  const TwoBodyPropagator propagator(sats, solver);
  ScreeningConfig base;
  base.threshold_km = 5.0;
  base.t_end = 600.0;
  base.seconds_per_sample = GridScreener::kDefaultSecondsPerSample;

  const std::vector<std::uint8_t> all(n, 1), none(n, 0);
  std::vector<std::uint8_t> some(n, 0);
  Rng rng(0xD1127);
  for (std::uint8_t& d : some) d = rng.uniform() < 0.2 ? 1 : 0;

  ThreadPool one(1), four(4);
  for (const int threads : {1, 4}) {
    const std::string label = std::to_string(threads) + " threads";
    ScreeningConfig cfg = base;
    cfg.pool = threads == 1 ? &one : &four;
    const auto candidates = [&](std::span<const std::uint8_t> mask) {
      GridPipelineResult result;
      GridPipelineOptions options;
      options.dirty_mask = mask;
      return testutil::pipeline_candidates(propagator, cfg,
                                           ConjunctionCountModel::paper_grid(), options,
                                           result);
    };
    const std::vector<Candidate> unmasked = candidates({});
    ASSERT_GT(unmasked.size(), 0u) << label;

    std::vector<Candidate> expected;
    std::size_t dirty_dirty = 0;
    for (const Candidate& c : unmasked) {
      if (some[c.sat_a] != 0 || some[c.sat_b] != 0) expected.push_back(c);
      if (some[c.sat_a] != 0 && some[c.sat_b] != 0) ++dirty_dirty;
    }
    // The random mask must leave both kinds of dirty pair, and drop some.
    EXPECT_GT(dirty_dirty, 0u) << label;
    EXPECT_GT(expected.size(), dirty_dirty) << label;
    EXPECT_LT(expected.size(), unmasked.size()) << label;

    const auto same = [&](const std::vector<Candidate>& got,
                          const std::vector<Candidate>& want, const char* mask) {
      ASSERT_EQ(got.size(), want.size()) << label << " " << mask;
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(std::tie(got[i].sat_a, got[i].sat_b, got[i].step),
                  std::tie(want[i].sat_a, want[i].sat_b, want[i].step))
            << label << " " << mask << " #" << i;
      }
    };
    same(candidates(all), unmasked, "all-ones");
    same(candidates(none), {}, "all-zeros");
    same(candidates(some), expected, "random");
  }
}

TEST(PipelineEdges, DirtyMaskPlanChargesThePhantomTables) {
  // A masked screen sizes and holds 27-entry-per-dirty-object tables, not
  // n-entry grids. With more than n/27 objects dirty those are the larger
  // ones, and a budget that fits one full grid no longer fits the screen.
  const auto sats = small_shell(300, 12);
  const ContourKeplerSolver solver;
  const TwoBodyPropagator propagator(sats, solver);
  ScreeningConfig cfg;
  cfg.threshold_km = 5.0;
  cfg.t_end = 600.0;
  cfg.seconds_per_sample = GridScreener::kDefaultSecondsPerSample;
  ThreadPool two(2);
  cfg.pool = &two;

  std::vector<std::uint8_t> mask(sats.size(), 0);
  for (std::size_t i = 0; i < mask.size(); i += 2) mask[i] = 1;  // k = n/2
  GridPipelineOptions options;
  options.dirty_mask = mask;
  const std::size_t entries = 27 * (sats.size() / 2);

  const GridPipelineResult roomy = run_grid_pipeline(
      propagator, cfg, ConjunctionCountModel::paper_grid(), options, discard_round);
  // Each CPU worker's table comes with its warm-start anomalies.
  const std::size_t warm = sats.size() * sizeof(double);
  EXPECT_EQ(roomy.plan.per_grid_bytes,
            GridHashSet::projected_memory_bytes(entries) + warm);
  EXPECT_EQ(roomy.grid_memory_bytes,
            2 * (GridHashSet::projected_memory_bytes(entries) + warm));

  // The budget of the full screen's plan with exactly one cell list.
  SizingRequest request;
  request.satellites = sats.size();
  request.warm_start = true;
  request.span_seconds = cfg.span_seconds();
  request.seconds_per_sample = cfg.seconds_per_sample;
  const SizingPlan full = plan_samples(request);
  // Neither plan reserves anything for candidate keys.
  EXPECT_EQ(full.fixed_bytes, sats.size() * (kSatelliteBytes + kKeplerCacheBytes));
  EXPECT_EQ(roomy.plan.fixed_bytes, full.fixed_bytes);
  cfg.memory_budget = full.fixed_bytes + full.per_grid_bytes;
  EXPECT_EQ(run_grid_pipeline(propagator, cfg, ConjunctionCountModel::paper_grid(), {},
                              discard_round)
                .plan.parallel_samples,
            1u);
  EXPECT_THROW(run_grid_pipeline(propagator, cfg, ConjunctionCountModel::paper_grid(),
                                 options, discard_round),
               MemoryBudgetExceeded);
}

TEST(PipelineEdges, BudgetBoundCpuFullScreenStaysWithinItsBudget) {
  // A CPU full screen plans p from its cell lists' bytes, sort scratch and
  // the worker's warm-start anomalies included, and holds min(p, workers)
  // of them. The workers' key lists hold one round at a time and are not
  // charged to the plan, so each budget below adds kKeyAllowance for them,
  // less than one more list: what the screen allocates (the fixed data,
  // the key lists, the cell lists and the anomalies) stays within it.
  const auto sats = small_shell(300, 12);
  const ContourKeplerSolver solver;
  const TwoBodyPropagator propagator(sats, solver);
  ScreeningConfig cfg;
  cfg.threshold_km = 5.0;
  cfg.t_end = 600.0;
  cfg.seconds_per_sample = GridScreener::kDefaultSecondsPerSample;

  SizingRequest request;
  request.satellites = sats.size();
  request.span_seconds = cfg.span_seconds();
  request.seconds_per_sample = cfg.seconds_per_sample;
  request.warm_start = true;
  const SizingPlan plan = plan_samples(request);
  ASSERT_EQ(plan.fixed_bytes, sats.size() * (kSatelliteBytes + kKeplerCacheBytes));
  ASSERT_EQ(plan.per_grid_bytes,
            CellList::projected_memory_bytes(sats.size()) + sats.size() * sizeof(double));
  // Measured: this screen's largest round keeps 1 key at p = 1 and 3 at
  // p = 3, each held twice (in the workers' lists and joined), 16 and 48
  // bytes.
  constexpr std::uint64_t kKeyAllowance = 256;
  ASSERT_LT(kKeyAllowance, plan.per_grid_bytes);

  for (const std::size_t lists : {std::size_t{1}, std::size_t{3}}) {
    cfg.memory_budget = plan.fixed_bytes + lists * plan.per_grid_bytes + kKeyAllowance;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      ThreadPool pool(threads);
      cfg.pool = &pool;
      const GridPipelineResult result = run_grid_pipeline(
          propagator, cfg, ConjunctionCountModel::paper_grid(), {}, discard_round);
      const std::string label =
          std::to_string(lists) + " lists, " + std::to_string(threads) + " threads";
      EXPECT_EQ(result.plan.parallel_samples, lists) << label;
      EXPECT_GT(result.plan.rounds, 1u) << label;
      EXPECT_EQ(result.candidate_set_growths, 0u) << label;
      EXPECT_EQ(result.grid_memory_bytes, std::min(lists, threads) * plan.per_grid_bytes)
          << label;
      EXPECT_EQ(result.plan.fixed_bytes, plan.fixed_bytes) << label;
      const std::uint64_t allocated = sats.size() * (kSatelliteBytes + kKeplerCacheBytes) +
                                      result.candidate_memory_bytes +
                                      result.grid_memory_bytes;
      EXPECT_LE(allocated, cfg.memory_budget) << label;
    }
  }
}

/// Every `stride`-th object of n marked dirty.
std::vector<std::uint8_t> every_nth(std::size_t n, std::size_t stride) {
  std::vector<std::uint8_t> mask(n, 0);
  for (std::size_t i = 0; i < n; i += stride) mask[i] = 1;
  return mask;
}

/// The candidates of `unmasked` with a member marked in `mask`.
std::vector<Candidate> with_dirty_member(const std::vector<Candidate>& unmasked,
                                         std::span<const std::uint8_t> mask) {
  std::vector<Candidate> kept;
  for (const Candidate& c : unmasked) {
    if (mask[c.sat_a] != 0 || mask[c.sat_b] != 0) kept.push_back(c);
  }
  return kept;
}

void expect_same_candidates(const std::vector<Candidate>& got,
                            const std::vector<Candidate>& want,
                            const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(std::tie(got[i].sat_a, got[i].sat_b, got[i].step),
              std::tie(want[i].sat_a, want[i].sat_b, want[i].step))
        << label << " #" << i;
  }
}

TEST(PipelineEdges, DirtyMaskTestsEachPairOnItsStepsStates) {
  // The reach test takes a pair's states from the step's solved anomalies.
  // A masked step propagates 256 objects at a time, so a lookup in the
  // first chunk meets a dirty object of the last chunk before the loop
  // has advanced its anomaly: the anomaly registration solved has to be
  // the one read. One-step runs (a budget of one table) solve cold and
  // must hand on their anomalies too. Dirty objects here are all in the
  // last chunk, each the partner of a clean object in the first: a
  // co-orbital twin trailing by 1-3 km (a candidate at nearly every
  // step) or a crossing interceptor. The masked candidates must be
  // exactly the full screen's with a dirty member, on 1 and 4 threads,
  // in multi-step runs and in one-step runs.
  std::vector<Satellite> sats = small_shell(600, 0x5EED);
  Rng rng(0x5EEE);
  std::vector<std::uint32_t> partners;
  for (std::uint32_t k = 0; k < 12; ++k) {
    const std::uint32_t partner = 20 * k + 3;
    const auto id = static_cast<std::uint32_t>(sats.size());
    if (k % 2 == 0) {
      KeplerElements twin = sats[partner].elements;
      twin.mean_anomaly += rng.uniform(1.5e-4, 4e-4);
      twin.semi_major_axis += rng.uniform(-0.2, 0.2);
      sats.push_back({id, twin});
    } else {
      sats.push_back(testutil::make_interceptor(sats[partner].elements,
                                                rng.uniform(100.0, 500.0),
                                                rng.uniform(-3.0, 3.0), rng, id));
    }
    partners.push_back(partner);
  }
  const std::size_t n = sats.size();
  constexpr std::size_t kMaskedChunk = 256;  // objects a masked step propagates at once
  ASSERT_GT(n, 2 * kMaskedChunk);
  std::vector<std::uint8_t> mask(n, 0);
  for (std::size_t i = 600; i < n; ++i) mask[i] = 1;

  const ContourKeplerSolver solver;
  const TwoBodyPropagator propagator(sats, solver);
  ScreeningConfig base;
  base.threshold_km = 5.0;
  base.t_end = 600.0;
  base.seconds_per_sample = GridScreener::kDefaultSecondsPerSample;
  GridPipelineOptions options;
  options.dirty_mask = mask;

  GridPipelineResult full;
  const std::vector<Candidate> expected = with_dirty_member(
      testutil::pipeline_candidates(propagator, base,
                                    ConjunctionCountModel::paper_grid(), {}, full),
      mask);
  // Every planted pair is a candidate, the twins at most steps.
  std::set<std::pair<std::uint32_t, std::uint32_t>> planted;
  for (const Candidate& c : expected) planted.insert({c.sat_a, c.sat_b});
  for (std::uint32_t k = 0; k < partners.size(); ++k) {
    EXPECT_TRUE(planted.count({partners[k], 600 + k}) == 1) << "pair " << k;
  }
  EXPECT_GT(expected.size(), 6 * full.plan.total_samples / 2);

  // The masked plan with one table per round: one-step runs.
  GridPipelineResult roomy;
  testutil::pipeline_candidates(propagator, base, ConjunctionCountModel::paper_grid(),
                                options, roomy);
  ASSERT_GT(roomy.plan.parallel_samples, 8u);
  const std::uint64_t one_table = roomy.plan.fixed_bytes + roomy.plan.per_grid_bytes;

  ThreadPool one(1), four(4);
  for (const int threads : {1, 4}) {
    for (const std::uint64_t budget : {base.memory_budget, one_table}) {
      const std::string label = std::to_string(threads) + " threads, budget " +
                                std::to_string(budget);
      ScreeningConfig cfg = base;
      cfg.pool = threads == 1 ? &one : &four;
      cfg.memory_budget = budget;
      GridPipelineResult result;
      const std::vector<Candidate> got = testutil::pipeline_candidates(
          propagator, cfg, ConjunctionCountModel::paper_grid(), options, result);
      EXPECT_EQ(result.plan.parallel_samples == 1, budget == one_table) << label;
      expect_same_candidates(got, expected, label);
    }
  }
}

TEST(PipelineEdges, DirtyMaskPlanReservesNothingForKeys) {
  // A CPU screen's workers keep their own key lists, so neither a full nor
  // a masked plan reserves candidate memory: fixed_bytes is the fixed data
  // n (a_s + a_k) alone, however large the count model's prediction, and
  // s_ps stays the config's. The masked candidates stay exactly the
  // unmasked ones with a dirty member.
  const auto sats = small_shell(400, 31);
  const std::size_t n = sats.size();
  const ContourKeplerSolver solver;
  const TwoBodyPropagator propagator(sats, solver);
  ScreeningConfig cfg;
  cfg.threshold_km = 5.0;
  cfg.t_end = 600.0;
  cfg.seconds_per_sample = GridScreener::kDefaultSecondsPerSample;
  // Scaled up far past the 20 000-candidate floor.
  ConjunctionCountModel model = ConjunctionCountModel::paper_grid();
  model.coefficient *= 1e5;
  const std::uint64_t fixed_data = n * (kSatelliteBytes + kKeplerCacheBytes);

  GridPipelineResult full;
  const std::vector<Candidate> unmasked =
      testutil::pipeline_candidates(propagator, cfg, model, {}, full);
  ASSERT_GT(unmasked.size(), 0u);
  EXPECT_EQ(full.plan.fixed_bytes, fixed_data);
  EXPECT_EQ(full.sample_period, cfg.seconds_per_sample);

  for (const std::size_t stride :
       {n, std::size_t{40}, std::size_t{10}, std::size_t{4}, std::size_t{2}, std::size_t{1}}) {
    const std::vector<std::uint8_t> mask = every_nth(n, stride);
    GridPipelineOptions options;
    options.dirty_mask = mask;
    GridPipelineResult result;
    const std::vector<Candidate> got =
        testutil::pipeline_candidates(propagator, cfg, model, options, result);
    const std::string label = "stride " + std::to_string(stride);
    EXPECT_EQ(result.plan.fixed_bytes, fixed_data) << label;
    EXPECT_EQ(result.sample_period, cfg.seconds_per_sample) << label;
    EXPECT_EQ(result.candidate_set_growths, 0u) << label;
    expect_same_candidates(got, with_dirty_member(unmasked, mask), label);
  }
}

TEST(PipelineEdges, DirtyMaskWithTheFloorCountModelKeepsTheSameCandidates) {
  // A dense debris cloud with two in three fragments dirty produces more
  // dirty-member candidates than the floor count model predicts (at
  // d = 5 km enough of its pairs stay within reach). The workers' key
  // lists never fill, so nothing grows or re-runs, and the candidates are
  // exactly a roomy model's unmasked ones with a dirty member, on 1 and 4
  // threads.
  const KeplerElements parent{7000.0, 0.001, 1.0, 0.5, 0.2, 1.0};
  const auto cloud = generate_debris_cloud(parent, 300, 0.05, 99);
  const ContourKeplerSolver solver;
  const TwoBodyPropagator propagator(cloud, solver);
  ScreeningConfig base;
  base.threshold_km = 5.0;
  base.t_end = 600.0;
  base.seconds_per_sample = GridScreener::kDefaultSecondsPerSample;
  ConjunctionCountModel tiny = ConjunctionCountModel::paper_grid();
  tiny.coefficient = 1e-20;  // the 20 000-candidate floor
  ConjunctionCountModel roomy = ConjunctionCountModel::paper_grid();
  roomy.coefficient *= 1e6;  // far above what the cloud produces

  std::vector<std::uint8_t> mask(cloud.size(), 1);
  for (std::size_t i = 0; i < mask.size(); i += 3) mask[i] = 0;

  ThreadPool one(1), four(4);
  for (const int threads : {1, 4}) {
    const std::string label = std::to_string(threads) + " threads";
    ScreeningConfig cfg = base;
    cfg.pool = threads == 1 ? &one : &four;
    GridPipelineResult full;
    const std::vector<Candidate> unmasked =
        testutil::pipeline_candidates(propagator, cfg, roomy, {}, full);
    GridPipelineOptions options;
    options.dirty_mask = mask;
    GridPipelineResult masked;
    const std::vector<Candidate> got =
        testutil::pipeline_candidates(propagator, cfg, tiny, options, masked);
    const std::vector<Candidate> expected = with_dirty_member(unmasked, mask);
    ASSERT_GT(expected.size(), 20000u) << label;
    EXPECT_EQ(masked.candidate_set_growths, 0u) << label;
    EXPECT_EQ(masked.total_candidates, got.size()) << label;
    expect_same_candidates(got, expected, label);
  }
}

TEST(PipelineEdges, TightBudgetCpuScreenFindsTheRoomyBudgetsReport) {
  // A dense debris cloud in a 3 MiB budget: the plan cuts the span into
  // rounds, and its rounds hold more candidates than the count model
  // sizes a candidate buffer for. The CPU workers' key lists never fill,
  // so nothing grows, and the report equals a roomy-budget screen's, on 1
  // and 4 threads.
  const KeplerElements parent{7000.0, 0.001, 1.0, 0.5, 0.2, 1.0};
  const auto cloud = generate_debris_cloud(parent, 300, 0.05, 99);
  const ContourKeplerSolver solver;
  const TwoBodyPropagator propagator(cloud, solver);
  ScreeningConfig roomy;
  roomy.threshold_km = 5.0;
  roomy.t_end = 1800.0;
  ScreeningConfig tight = roomy;
  tight.memory_budget = 3u << 20;
  const std::size_t modelled = candidate_capacity_from_model(
      ConjunctionCountModel::paper_grid(), static_cast<double>(cloud.size()),
      GridScreener::kDefaultSecondsPerSample, roomy.span_seconds(), roomy.threshold_km);

  ThreadPool one(1), four(4);
  // Reports do not depend on the thread count, so one roomy screen serves.
  roomy.pool = &four;
  const ScreeningReport want = GridScreener().screen(propagator, roomy);
  for (ThreadPool* pool : {&one, &four}) {
    const std::string label = std::to_string(pool->thread_count()) + " threads";
    tight.pool = pool;
    const ScreeningReport got = GridScreener().screen(propagator, tight);
    EXPECT_GT(got.stats.rounds, 1u) << label;
    // Some round outgrew the model's buffer.
    EXPECT_GT(got.stats.candidates, got.stats.rounds * modelled) << label;
    EXPECT_EQ(got.stats.candidate_set_growths, 0u) << label;
    EXPECT_EQ(want.stats.candidate_set_growths, 0u) << label;
    EXPECT_EQ(got.stats.seconds_per_sample, want.stats.seconds_per_sample) << label;
    EXPECT_EQ(got.stats.candidates, want.stats.candidates) << label;
    EXPECT_EQ(got.stats.refinements, want.stats.refinements) << label;
    ASSERT_EQ(got.conjunctions.size(), want.conjunctions.size()) << label;
    ASSERT_GT(want.conjunctions.size(), 0u) << label;
    for (std::size_t i = 0; i < want.conjunctions.size(); ++i) {
      const Conjunction& g = got.conjunctions[i];
      const Conjunction& w = want.conjunctions[i];
      EXPECT_EQ(std::tie(g.sat_a, g.sat_b, g.tca, g.pca),
                std::tie(w.sat_a, w.sat_b, w.tca, w.pca))
          << label << " #" << i;
    }
  }
}

TEST(PipelineEdges, CpuScreenKeepsItsSamplePeriodWhereTheModelsBufferDoesNotFit) {
  // A CPU grid screen holds one round's keys at a time, so unlike
  // devicesim, whose candidate buffer is the paper's, it reserves nothing
  // for Eq. 3's a_ch and never lowers s_ps (Section V-C). The budget fits
  // the fixed data n (a_s + a_k) and one step's table on either backend,
  // plus the buffer at s_ps 2 but not at the default 4. A CPU grid screen
  // keeps s_ps 4 and reports what a roomy budget does, on 1 and 4
  // threads; devicesim samples at 2 s.
  const auto sats = generate_population({3000, 5});
  const std::size_t n = sats.size();
  ScreeningConfig roomy;
  roomy.threshold_km = 20.0;
  roomy.t_end = 1800.0;
  const double sps = GridScreener::kDefaultSecondsPerSample;
  ASSERT_EQ(sps, 4.0);
  const auto buffer_at = [&](double s) {
    return CandidateBuffer::projected_memory_bytes(candidate_capacity_from_model(
        ConjunctionCountModel::paper_grid(), static_cast<double>(n), s,
        roomy.span_seconds(), roomy.threshold_km));
  };
  const std::uint64_t table =
      std::max<std::uint64_t>(CellList::projected_memory_bytes(n) + n * sizeof(double),
                              GridHashSet::projected_memory_bytes(n));
  ScreeningConfig tight = roomy;
  tight.memory_budget = n * (kSatelliteBytes + kKeplerCacheBytes) + table + buffer_at(2.0);
  // Not even the smaller of the two tables fits beside the buffer at 4 s.
  ASSERT_GT(buffer_at(sps), table + buffer_at(2.0));

  ThreadPool one(1), four(4);
  roomy.pool = &four;
  const ScreeningReport want = GridScreener().screen(sats, roomy);
  ASSERT_EQ(want.stats.seconds_per_sample, sps);
  ASSERT_GT(want.conjunctions.size(), 0u);
  for (ThreadPool* pool : {&one, &four}) {
    const std::string label = std::to_string(pool->thread_count()) + " threads";
    tight.pool = pool;
    const ScreeningReport got = GridScreener().screen(sats, tight);
    EXPECT_EQ(got.stats.seconds_per_sample, sps) << label;
    EXPECT_GT(got.stats.rounds, 1u) << label;
    EXPECT_EQ(got.stats.candidates, want.stats.candidates) << label;
    EXPECT_EQ(got.stats.refinements, want.stats.refinements) << label;
    ASSERT_EQ(got.conjunctions.size(), want.conjunctions.size()) << label;
    for (std::size_t i = 0; i < want.conjunctions.size(); ++i) {
      const Conjunction& g = got.conjunctions[i];
      const Conjunction& w = want.conjunctions[i];
      EXPECT_EQ(std::tie(g.sat_a, g.sat_b, g.tca, g.pca),
                std::tie(w.sat_a, w.sat_b, w.tca, w.pca))
          << label << " #" << i;
    }
  }

  DeviceProperties props;
  props.memory_bytes = tight.memory_budget;
  Device device(props, &four);
  ScreeningConfig on_device = tight;
  on_device.device = &device;
  on_device.pool = &four;
  const ScreeningReport lowered = GridScreener().screen(sats, on_device);
  EXPECT_EQ(lowered.stats.seconds_per_sample, 2.0);
  EXPECT_GT(lowered.conjunctions.size(), 0u);
  EXPECT_EQ(device.memory_used(), 0u);  // everything released
}

TEST(PipelineEdges, HybridCpuScreenReservesItsSpanKeysAndLowersSps) {
  // The hybrid screener keeps every round's keys until its filters run, so
  // its CPU plan reserves Eq. 4's a_ch for them and lowers s_ps when that
  // does not fit (Section V-C), as devicesim does for its buffer. The
  // budget fits the fixed data n (a_s + a_k), one cell list and the
  // reservation at s_ps 8 but not at the default 16. The screen samples
  // at 8 s and reports what a roomy budget does at 8 s, and the key bytes
  // it held, measured, stay within the reservation and the budget, on 1
  // and 4 threads.
  const auto sats = generate_population({3000, 5});
  const std::size_t n = sats.size();
  ScreeningConfig roomy;
  roomy.threshold_km = 20.0;
  roomy.t_end = 1800.0;
  const double sps = HybridScreener::kDefaultSecondsPerSample;
  ASSERT_EQ(sps, 16.0);
  const auto reserved_at = [&](double s) {
    return CandidateBuffer::projected_memory_bytes(candidate_capacity_from_model(
        ConjunctionCountModel::paper_hybrid(), static_cast<double>(n), s,
        roomy.span_seconds(), roomy.threshold_km));
  };
  const std::uint64_t fixed = n * (kSatelliteBytes + kKeplerCacheBytes);
  const std::uint64_t table = CellList::projected_memory_bytes(n) + n * sizeof(double);
  ScreeningConfig tight = roomy;
  tight.memory_budget = fixed + table + reserved_at(8.0);
  ASSERT_GT(reserved_at(sps), table + reserved_at(8.0));

  ThreadPool one(1), four(4);
  roomy.pool = &four;
  roomy.seconds_per_sample = 8.0;
  const ScreeningReport want = screen(sats, roomy, Variant::kHybrid);
  ASSERT_GT(want.conjunctions.size(), 0u);
  for (ThreadPool* pool : {&one, &four}) {
    const std::string label = std::to_string(pool->thread_count()) + " threads";
    tight.pool = pool;
    const ScreeningReport got = screen(sats, tight, Variant::kHybrid);
    EXPECT_EQ(got.stats.seconds_per_sample, 8.0) << label;
    EXPECT_EQ(got.stats.parallel_samples, 1u) << label;
    EXPECT_EQ(got.stats.candidates, want.stats.candidates) << label;
    EXPECT_LE(got.stats.candidate_memory_bytes, reserved_at(8.0)) << label;
    EXPECT_LE(fixed + got.stats.grid_memory_bytes + got.stats.candidate_memory_bytes,
              tight.memory_budget)
        << label;
    ASSERT_EQ(got.conjunctions.size(), want.conjunctions.size()) << label;
    for (std::size_t i = 0; i < want.conjunctions.size(); ++i) {
      const Conjunction& g = got.conjunctions[i];
      const Conjunction& w = want.conjunctions[i];
      EXPECT_EQ(std::tie(g.sat_a, g.sat_b, g.tca, g.pca),
                std::tie(w.sat_a, w.sat_b, w.tca, w.pca))
          << label << " #" << i;
    }
  }
}

TEST(PipelineEdges, MaskedScreensRefuseADevice) {
  // A masked screen runs on the CPU only: the pipeline refuses a dirty mask
  // with a device before it allocates anything, and the service, whose
  // incremental passes are masked, refuses a device at construction.
  const auto sats = small_shell(50, 3);
  const ContourKeplerSolver solver;
  const TwoBodyPropagator propagator(sats, solver);
  ThreadPool four(4);
  Device device(DeviceProperties{}, &four);
  ScreeningConfig cfg;
  cfg.threshold_km = 5.0;
  cfg.t_end = 600.0;
  cfg.seconds_per_sample = GridScreener::kDefaultSecondsPerSample;
  cfg.device = &device;
  const std::vector<std::uint8_t> mask(sats.size(), 1);
  GridPipelineOptions options;
  options.dirty_mask = mask;
  EXPECT_THROW(run_grid_pipeline(propagator, cfg, ConjunctionCountModel::paper_grid(), options,
                                 discard_round),
               std::invalid_argument);
  EXPECT_EQ(device.memory_used(), 0u);

  ServiceOptions service_options;
  service_options.config = cfg;
  EXPECT_THROW(ScreeningService{service_options}, std::invalid_argument);
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

TEST(PipelineEdges, RoundSinkReceivesEachRoundInOrder) {
  // The sink contract: one call per round, in round order, each carrying
  // only candidates of its own round's steps, and the per-round counts add
  // up to the pipeline's total. Checked on one round and on many.
  const auto sats = small_shell(40, 5);
  const ContourKeplerSolver solver;
  const TwoBodyPropagator propagator(sats, solver);
  ScreeningConfig cfg;
  cfg.threshold_km = 5.0;
  cfg.t_end = 3000.0;
  cfg.seconds_per_sample = GridScreener::kDefaultSecondsPerSample;

  for (const std::uint64_t budget : {ScreeningConfig{}.memory_budget,
                                     std::uint64_t{1} << 20}) {
    cfg.memory_budget = budget;
    std::vector<std::size_t> rounds_seen;
    std::size_t streamed = 0;
    const GridPipelineResult result = run_grid_pipeline(
        propagator, cfg, ConjunctionCountModel::paper_grid(), {},
        [&](std::size_t round, std::span<const std::uint64_t> keys,
            const GridPipelineResult& pipeline) {
          rounds_seen.push_back(round);
          streamed += keys.size();
          const std::size_t p = pipeline.plan.parallel_samples;
          for (const std::uint64_t key : keys) {
            const Candidate c = unpack_candidate(key);
            EXPECT_GE(c.step, round * p) << "round " << round;
            EXPECT_LT(c.step, std::min((round + 1) * p, pipeline.plan.total_samples))
                << "round " << round;
          }
        });
    ASSERT_EQ(rounds_seen.size(), result.plan.rounds) << budget;
    for (std::size_t r = 0; r < rounds_seen.size(); ++r) {
      EXPECT_EQ(rounds_seen[r], r) << budget;
    }
    EXPECT_EQ(streamed, result.total_candidates) << budget;
    EXPECT_GT(streamed, 0u) << budget;
    if (budget == ScreeningConfig{}.memory_budget) {
      EXPECT_EQ(result.plan.rounds, 1u);
    } else {
      EXPECT_GT(result.plan.rounds, 1u);
    }
  }
}

TEST(PipelineEdges, WarmRunsSpreadEveryRoundOverTheWorkers) {
  // A CPU round is cut into warm_runs(steps) runs: one step each while the
  // round has fewer than kRunMultiple steps (no step waits behind another
  // worker's warm run), otherwise a multiple of kRunMultiple runs, the
  // fewest that keep each within kWarmRun steps.
  for (std::size_t steps = 1; steps < kRunMultiple; ++steps) {
    EXPECT_EQ(warm_runs(steps), steps);
  }
  EXPECT_EQ(warm_runs(16), 8u);
  EXPECT_EQ(warm_runs(113), 8u);
  EXPECT_EQ(warm_runs(128), 8u);
  EXPECT_EQ(warm_runs(129), 16u);
  EXPECT_EQ(warm_runs(450), 32u);
  for (std::size_t steps = 1; steps <= 2000; ++steps) {
    const std::size_t runs = warm_runs(steps);
    ASSERT_GE(runs, 1u);
    EXPECT_TRUE(runs == steps || runs % kRunMultiple == 0) << steps;
    // Run j covers [j * steps / runs, (j + 1) * steps / runs).
    EXPECT_LE((steps + runs - 1) / runs, kWarmRun) << steps;
    if (runs > kRunMultiple) {
      EXPECT_GT((steps + runs - kRunMultiple - 1) / (runs - kRunMultiple), kWarmRun) << steps;
    }
  }
}

TEST(PipelineEdges, CandidateSetHoldsOneRoundAtATime) {
  // A debris cloud screened in rounds of 4 steps: the count model's floor
  // capacity covers any one round's candidates but not the whole span's
  // (at d = 20 km most of its pairs stay within reach). The workers' key
  // lists are handed to the sink and reused round by round, so nothing
  // grows, and the sink sees every candidate once.
  const KeplerElements parent{7000.0, 0.001, 1.0, 0.5, 0.2, 1.0};
  const auto cloud = generate_debris_cloud(parent, 80, 0.05, 99);
  const ContourKeplerSolver solver;
  const TwoBodyPropagator propagator(cloud, solver);
  ScreeningConfig cfg;
  cfg.threshold_km = 20.0;
  cfg.t_end = 600.0;
  cfg.seconds_per_sample = GridScreener::kDefaultSecondsPerSample;

  ConjunctionCountModel tiny = ConjunctionCountModel::paper_grid();
  tiny.coefficient = 1e-20;  // the 20 000-candidate floor
  const std::size_t floor_capacity = candidate_capacity_from_model(
      tiny, static_cast<double>(cloud.size()), cfg.seconds_per_sample,
      cfg.span_seconds(), cfg.threshold_km);
  SizingRequest request;
  request.satellites = cloud.size();
  request.span_seconds = cfg.span_seconds();
  request.seconds_per_sample = cfg.seconds_per_sample;
  request.warm_start = true;
  const SizingPlan plan = plan_samples(request);
  constexpr std::size_t kStepsPerRound = 4;
  cfg.memory_budget = plan.fixed_bytes + kStepsPerRound * plan.per_grid_bytes;
  // A round holds at most one candidate per pair and step.
  const std::size_t pairs = cloud.size() * (cloud.size() - 1) / 2;
  ASSERT_LT(kStepsPerRound * pairs, floor_capacity);

  std::size_t streamed = 0;
  const GridPipelineResult result = run_grid_pipeline(
      propagator, cfg, tiny, {},
      [&](std::size_t, std::span<const std::uint64_t> keys, const GridPipelineResult&) {
        streamed += keys.size();
      });
  ASSERT_EQ(result.plan.parallel_samples, kStepsPerRound);
  EXPECT_GE(result.plan.rounds, 3u);
  EXPECT_GT(result.total_candidates, floor_capacity);
  EXPECT_EQ(result.candidate_set_growths, 0u);
  EXPECT_EQ(streamed, result.total_candidates);
}

enum class Screen { kFull, kMasked };
enum class Rounds { kOne, kMany };
using WorkerListCase = std::tuple<std::size_t, Screen, Rounds>;

/// Each round's keys as the round sink received them, sorted; the
/// pipeline's counters go to `result`. Fails the test when a round holds a
/// key twice.
std::vector<std::vector<std::uint64_t>> keys_by_round(const Propagator& propagator,
                                                      const ScreeningConfig& config,
                                                      const GridPipelineOptions& options,
                                                      GridPipelineResult& result) {
  std::vector<std::vector<std::uint64_t>> rounds;
  result = run_grid_pipeline(
      propagator, config, ConjunctionCountModel::paper_grid(), options,
      [&](std::size_t round, std::span<const std::uint64_t> keys, const GridPipelineResult&) {
        EXPECT_EQ(round, rounds.size());
        rounds.emplace_back(keys.begin(), keys.end());
        std::sort(rounds.back().begin(), rounds.back().end());
        EXPECT_EQ(std::adjacent_find(rounds.back().begin(), rounds.back().end()),
                  rounds.back().end())
            << "round " << round << " holds a key twice";
      });
  return rounds;
}

std::string worker_list_name(const ::testing::TestParamInfo<WorkerListCase>& param) {
  const auto [threads, screen, rounds] = param.param;
  return std::to_string(threads) + "Threads" +
         (screen == Screen::kFull ? "Full" : "Masked") +
         (rounds == Rounds::kOne ? "OneRound" : "ManyRounds");
}

class CpuWorkerLists : public ::testing::TestWithParam<WorkerListCase> {};

TEST_P(CpuWorkerLists, JoinOneWorkersKeysRoundForRound) {
  // On the CPU each worker appends the keys it keeps to its own list, and
  // the round's lists are joined for the sink, then reused by the next
  // round. However the steps fall to the workers, on the cell-list sweep
  // and on the masked phantom lookup, each round must hand the sink
  // exactly the keys a single worker finds, each once and all of its own
  // steps (nothing left from the round before); nothing grows, and the
  // screen reports the largest round's keys held twice.
  const auto [threads, screen, rounds] = GetParam();
  const KeplerElements parent{7000.0, 0.001, 1.0, 0.5, 0.2, 1.0};
  const auto cloud = generate_debris_cloud(parent, 80, 0.05, 99);
  const ContourKeplerSolver solver;
  const TwoBodyPropagator propagator(cloud, solver);
  ScreeningConfig cfg;
  cfg.threshold_km = 20.0;
  cfg.t_end = 600.0;
  cfg.seconds_per_sample = GridScreener::kDefaultSecondsPerSample;
  const std::vector<std::uint8_t> mask = every_nth(cloud.size(), 3);
  GridPipelineOptions options;
  if (screen == Screen::kMasked) options.dirty_mask = mask;

  ThreadPool one(1), many(threads);
  cfg.pool = &one;
  GridPipelineResult planned;
  keys_by_round(propagator, cfg, options, planned);
  if (rounds == Rounds::kMany) {
    cfg.memory_budget = planned.plan.fixed_bytes + 3 * planned.plan.per_grid_bytes;
  }
  GridPipelineResult single;
  const auto want = keys_by_round(propagator, cfg, options, single);
  cfg.pool = &many;
  GridPipelineResult result;
  const auto got = keys_by_round(propagator, cfg, options, result);

  ASSERT_EQ(got.size(), result.plan.rounds);
  if (rounds == Rounds::kOne) {
    EXPECT_EQ(result.plan.rounds, 1u);
  } else {
    EXPECT_GT(result.plan.rounds, 3u);
  }
  ASSERT_EQ(got.size(), want.size());
  std::size_t total = 0, largest = 0;
  for (std::size_t r = 0; r < got.size(); ++r) {
    EXPECT_EQ(got[r], want[r]) << "round " << r;
    total += got[r].size();
    largest = std::max(largest, got[r].size());
    const std::size_t p = result.plan.parallel_samples;
    for (const std::uint64_t key : got[r]) {
      const Candidate c = unpack_candidate(key);
      EXPECT_GE(c.step, r * p) << "round " << r;
      EXPECT_LT(c.step, std::min((r + 1) * p, result.plan.total_samples)) << "round " << r;
      if (screen == Screen::kMasked) {
        EXPECT_TRUE(mask[c.sat_a] != 0 || mask[c.sat_b] != 0) << "round " << r;
      }
    }
  }
  EXPECT_GT(total, 0u);
  EXPECT_EQ(result.total_candidates, total);
  EXPECT_EQ(result.candidate_set_growths, 0u);
  EXPECT_EQ(result.candidate_memory_bytes, 2 * largest * sizeof(std::uint64_t));
  EXPECT_EQ(single.candidate_memory_bytes, result.candidate_memory_bytes);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadCounts, CpuWorkerLists,
    ::testing::Combine(::testing::Values(std::size_t{2}, std::size_t{3}, std::size_t{4}),
                       ::testing::Values(Screen::kFull, Screen::kMasked),
                       ::testing::Values(Rounds::kOne, Rounds::kMany)),
    worker_list_name);

}  // namespace
}  // namespace scod
