#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/grid_screener.hpp"
#include "model/conjunction_model.hpp"
#include "model/sizing.hpp"
#include "population/catalog_io.hpp"
#include "population/generator.hpp"
#include "population/tle.hpp"
#include "service/screening_service.hpp"
#include "spatial/candidate_buffer.hpp"
#include "spatial/cell.hpp"
#include "spatial/cell_list.hpp"
#include "util/constants.hpp"
#include "util/rng.hpp"

namespace scod {
namespace {

Satellite make_sat(std::uint32_t id, double a = 7000.0, double raan = 0.0) {
  Satellite sat;
  sat.id = id;
  sat.elements.semi_major_axis = a;
  sat.elements.eccentricity = 0.001;
  sat.elements.inclination = 0.9;
  sat.elements.raan = raan;
  sat.elements.arg_perigee = 0.3;
  sat.elements.mean_anomaly = 1.0;
  return sat;
}

// ---------------------------------------------------------------------------
// CatalogStore: versioned snapshots

TEST(CatalogStore, StartsEmpty) {
  CatalogStore store;
  EXPECT_EQ(store.epoch(), 0u);
  EXPECT_EQ(store.size(), 0u);
  const auto snap = store.snapshot();
  EXPECT_EQ(snap->find(1), nullptr);
  EXPECT_EQ(snap->index_of(1), CatalogSnapshot::npos);
  EXPECT_TRUE(snap->modified_since(0).empty());
}

TEST(CatalogStore, UpsertInsertsSortedAndReplaces) {
  CatalogStore store;
  EXPECT_EQ(store.upsert(make_sat(5)), 1u);
  EXPECT_EQ(store.upsert(make_sat(2)), 2u);

  auto snap = store.snapshot();
  ASSERT_EQ(snap->size(), 2u);
  // Dense layout is ascending-id regardless of insertion order.
  EXPECT_EQ(snap->satellites[0].id, 2u);
  EXPECT_EQ(snap->satellites[1].id, 5u);
  EXPECT_EQ(snap->index_of(5), 1u);
  EXPECT_EQ(snap->modified_epoch[0], 2u);
  EXPECT_EQ(snap->modified_epoch[1], 1u);

  // Replacing by id keeps the size and restamps only that object.
  Satellite updated = make_sat(5, 7200.0);
  EXPECT_EQ(store.upsert(updated), 3u);
  snap = store.snapshot();
  ASSERT_EQ(snap->size(), 2u);
  EXPECT_EQ(snap->find(5)->elements.semi_major_axis, 7200.0);
  EXPECT_EQ(snap->modified_epoch[snap->index_of(5)], 3u);
  EXPECT_EQ(snap->modified_epoch[snap->index_of(2)], 2u);
}

TEST(CatalogStore, BatchUpsertIsOneEpochStepAndLastDuplicateWins) {
  CatalogStore store;
  std::vector<Satellite> batch = {make_sat(3), make_sat(1),
                                  make_sat(3, 7500.0)};
  EXPECT_EQ(store.upsert(batch), 1u);
  EXPECT_EQ(store.epoch(), 1u);
  const auto snap = store.snapshot();
  ASSERT_EQ(snap->size(), 2u);
  EXPECT_EQ(snap->find(3)->elements.semi_major_axis, 7500.0);

  // An empty batch leaves the epoch alone.
  EXPECT_EQ(store.upsert(std::span<const Satellite>{}), 1u);
}

TEST(CatalogStore, RejectsInvalidOrbit) {
  CatalogStore store;
  store.upsert(make_sat(1));
  Satellite bad = make_sat(2, 100.0);  // sub-surface
  EXPECT_THROW(store.upsert(bad), std::invalid_argument);
  EXPECT_EQ(store.epoch(), 1u);
  EXPECT_EQ(store.size(), 1u);
}

TEST(CatalogStore, SnapshotsAreImmutableCopies) {
  CatalogStore store;
  store.upsert(make_sat(1));
  store.upsert(make_sat(2));
  const auto old_snap = store.snapshot();

  store.upsert(make_sat(1, 7300.0));
  store.remove(2);

  // The held snapshot still shows the world as of epoch 2.
  EXPECT_EQ(old_snap->epoch, 2u);
  ASSERT_EQ(old_snap->size(), 2u);
  EXPECT_EQ(old_snap->find(1)->elements.semi_major_axis, 7000.0);
  ASSERT_NE(old_snap->find(2), nullptr);

  const auto new_snap = store.snapshot();
  EXPECT_EQ(new_snap->epoch, 4u);
  EXPECT_EQ(new_snap->size(), 1u);
  EXPECT_EQ(new_snap->find(1)->elements.semi_major_axis, 7300.0);
}

TEST(CatalogStore, RemoveAndRemovedSince) {
  CatalogStore store;
  store.upsert(make_sat(1));
  store.upsert(make_sat(2));  // epoch 2

  EXPECT_FALSE(store.remove(99));
  EXPECT_EQ(store.epoch(), 2u);
  EXPECT_TRUE(store.remove(1));  // epoch 3
  EXPECT_EQ(store.epoch(), 3u);
  EXPECT_EQ(store.size(), 1u);

  EXPECT_EQ(store.removed_since(2), (std::vector<std::uint32_t>{1}));
  EXPECT_TRUE(store.removed_since(3).empty());

  // A re-added id is a modification, not a removal: the incremental merge
  // must treat it as dirty rather than evict-and-forget.
  store.upsert(make_sat(1, 7100.0));  // epoch 4
  EXPECT_TRUE(store.removed_since(2).empty());
  const auto modified = store.snapshot()->modified_since(2);
  EXPECT_EQ(modified, (std::vector<std::uint32_t>{1}));
}

TEST(CatalogStore, ModifiedSinceIsAscendingAndScoped) {
  CatalogStore store;
  store.upsert(make_sat(4));
  store.upsert(make_sat(2));
  const std::uint64_t mark = store.epoch();
  store.upsert(make_sat(9));
  store.upsert(make_sat(2, 7400.0));

  EXPECT_EQ(store.snapshot()->modified_since(mark),
            (std::vector<std::uint32_t>{2, 9}));
  EXPECT_TRUE(store.snapshot()->modified_since(store.epoch()).empty());
}

TEST(CatalogStore, IngestCsvUpsertsById) {
  const auto population = generate_population({20, 17});
  const std::string path = testing::TempDir() + "/scod_store_ingest.csv";
  save_catalog_csv(path, population);

  CatalogStore store;
  EXPECT_EQ(store.ingest_csv(path), 20u);
  EXPECT_EQ(store.epoch(), 1u);
  ASSERT_EQ(store.size(), 20u);
  const auto snap = store.snapshot();
  for (const Satellite& sat : population) {
    ASSERT_NE(snap->find(sat.id), nullptr);
    EXPECT_EQ(snap->find(sat.id)->elements, sat.elements);
  }

  // Re-ingesting the same file updates in place: one epoch, same size.
  EXPECT_EQ(store.ingest_csv(path), 20u);
  EXPECT_EQ(store.epoch(), 2u);
  EXPECT_EQ(store.size(), 20u);
  std::remove(path.c_str());
}

TleRecord tle_record(std::uint32_t catalog_number, double mean_anomaly_deg) {
  TleRecord rec;
  rec.name = "SVC TEST";
  rec.catalog_number = catalog_number;
  rec.classification = 'U';
  rec.intl_designator = "98067A";
  rec.epoch_year = 2026;
  rec.epoch_day = 10.5;
  rec.bstar = 3.0e-5;
  rec.element_set = 1;
  rec.revolution_number = 1000;
  rec.mean_motion_rev_day = 15.5;
  rec.elements.inclination = 0.9;
  rec.elements.raan = 1.0;
  rec.elements.eccentricity = 0.0005;
  rec.elements.arg_perigee = 0.5;
  rec.elements.mean_anomaly = mean_anomaly_deg * kPi / 180.0;
  return rec;
}

TEST(CatalogStore, IngestTleUpsertsByCatalogNumber) {
  const std::string path = testing::TempDir() + "/scod_store_ingest.tle";
  {
    std::FILE* out = std::fopen(path.c_str(), "w");
    ASSERT_NE(out, nullptr);
    for (const auto catnum : {25544u, 11111u}) {
      const auto [l1, l2] = format_tle(tle_record(catnum, 90.0));
      std::fprintf(out, "%s\n%s\n", l1.c_str(), l2.c_str());
    }
    std::fclose(out);
  }

  CatalogStore store;
  EXPECT_EQ(store.ingest_tle(path), 2u);
  ASSERT_EQ(store.size(), 2u);
  ASSERT_NE(store.snapshot()->find(25544), nullptr);
  ASSERT_NE(store.snapshot()->find(11111), nullptr);

  // A newer element set for the same NORAD number is an update.
  {
    std::FILE* out = std::fopen(path.c_str(), "w");
    ASSERT_NE(out, nullptr);
    const auto [l1, l2] = format_tle(tle_record(25544, 180.0));
    std::fprintf(out, "%s\n%s\n", l1.c_str(), l2.c_str());
    std::fclose(out);
  }
  EXPECT_EQ(store.ingest_tle(path), 1u);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_NEAR(store.snapshot()->find(25544)->elements.mean_anomaly, kPi, 1e-5);
  std::remove(path.c_str());
}

TEST(CatalogStore, EdgeOrbitsSurviveCsvIngest) {
  // Circular, equatorial, polar and retrograde orbits all sit on parameter
  // boundaries (e = 0, i = 0, i = pi) where angle conventions degenerate;
  // they must round-trip through the CSV path and the store bit-exactly.
  std::vector<Satellite> edge;
  Satellite circular = make_sat(1);
  circular.elements.eccentricity = 0.0;
  Satellite near_circular = make_sat(2);
  near_circular.elements.eccentricity = 1e-12;
  Satellite equatorial = make_sat(3);
  equatorial.elements.inclination = 0.0;
  Satellite retrograde = make_sat(4);
  retrograde.elements.inclination = kPi;
  Satellite near_retrograde = make_sat(5);
  near_retrograde.elements.inclination = kPi - 1e-9;
  edge = {circular, near_circular, equatorial, retrograde, near_retrograde};

  const std::string path = testing::TempDir() + "/scod_store_edge.csv";
  save_catalog_csv(path, edge);

  CatalogStore store;
  EXPECT_EQ(store.ingest_csv(path), edge.size());
  const auto snap = store.snapshot();
  for (const Satellite& sat : edge) {
    ASSERT_NE(snap->find(sat.id), nullptr) << "id " << sat.id;
    EXPECT_EQ(snap->find(sat.id)->elements, sat.elements) << "id " << sat.id;
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// ScreeningService: warm baseline and dirty-set re-screening

ServiceOptions dense_options() {
  ServiceOptions options;
  options.config.threshold_km = 10.0;
  options.config.t_end = 1800.0;
  options.config.seconds_per_sample = 30.0;
  return options;
}

void expect_equivalent(const std::vector<IdConjunction>& got,
                       const std::vector<IdConjunction>& want,
                       const char* context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].id_a, want[i].id_a) << context << " [" << i << "]";
    EXPECT_EQ(got[i].id_b, want[i].id_b) << context << " [" << i << "]";
    // Clean pairs carry over verbatim and dirty pairs re-refine on the
    // identical grid, so agreement is far inside the Brent tolerance.
    EXPECT_NEAR(got[i].tca, want[i].tca, 1e-6) << context << " [" << i << "]";
    EXPECT_NEAR(got[i].pca, want[i].pca, 1e-9) << context << " [" << i << "]";
  }
}

TEST(ScreeningService, PinsSamplePeriodAtConstruction) {
  ServiceOptions options;
  options.config.seconds_per_sample = 0.0;  // unset: take the grid default
  ScreeningService service(options);
  EXPECT_EQ(service.options().config.seconds_per_sample,
            GridScreener::kDefaultSecondsPerSample);

  ServiceOptions pinned;
  pinned.config.seconds_per_sample = 12.0;
  ScreeningService explicit_service(pinned);
  EXPECT_EQ(explicit_service.options().config.seconds_per_sample, 12.0);
}

TEST(ScreeningService, EmptyCatalogScreensToNothing) {
  ScreeningService service(dense_options());
  const ServiceReport report = service.screen();
  EXPECT_EQ(report.epoch, 0u);
  EXPECT_EQ(report.catalog_size, 0u);
  EXPECT_TRUE(report.conjunctions.empty());
}

TEST(ScreeningService, SecondScreenWithoutDeltaIsCached) {
  ScreeningService service(dense_options());
  service.upsert(generate_population({300, 5}));
  const ServiceReport first = service.screen();
  EXPECT_FALSE(first.incremental);

  const ServiceReport second = service.screen();
  EXPECT_TRUE(second.incremental);
  EXPECT_EQ(second.carried, first.conjunctions.size());
  EXPECT_EQ(second.refreshed, 0u);
  ASSERT_EQ(second.conjunctions.size(), first.conjunctions.size());
  EXPECT_EQ(service.stats().cached_screens, 1u);
  EXPECT_EQ(service.stats().full_screens, 1u);
}

TEST(ScreeningService, RepeatFullScreensAreBitIdentical) {
  // Each full epoch allocates its own scratch; a second full screen of the
  // same catalog must reproduce the first to the last bit, and an
  // incremental pass after it must still match the from-scratch reference.
  ServiceOptions options;
  options.config.threshold_km = 10.0;
  options.config.t_end = 1800.0;
  options.config.seconds_per_sample = 8.0;
  ScreeningService service(options);
  service.upsert(generate_population({250, 17}));

  const ServiceReport first = service.screen(ScreenMode::kFull);
  const ServiceReport second = service.screen(ScreenMode::kFull);
  EXPECT_FALSE(second.incremental);
  EXPECT_EQ(service.stats().full_screens, 2u);
  ASSERT_FALSE(first.conjunctions.empty());
  ASSERT_EQ(second.conjunctions.size(), first.conjunctions.size());
  for (std::size_t i = 0; i < first.conjunctions.size(); ++i) {
    EXPECT_EQ(second.conjunctions[i].id_a, first.conjunctions[i].id_a);
    EXPECT_EQ(second.conjunctions[i].id_b, first.conjunctions[i].id_b);
    // EXPECT_EQ, not EXPECT_DOUBLE_EQ: zero ULPs of slack.
    EXPECT_EQ(second.conjunctions[i].tca, first.conjunctions[i].tca);
    EXPECT_EQ(second.conjunctions[i].pca, first.conjunctions[i].pca);
  }

  Satellite touched = service.store().snapshot()->satellites[3];
  touched.elements.mean_anomaly += 0.01;
  service.upsert(touched);
  const ServiceReport incremental = service.screen(ScreenMode::kIncremental);
  EXPECT_TRUE(incremental.incremental);
  expect_equivalent(incremental.conjunctions, service.reference_conjunctions(),
                    "incremental after repeat full screens");
}

TEST(ScreeningService, AutoModeFallsBackToFullOnHighChurn) {
  ScreeningService service(dense_options());
  const auto population = generate_population({200, 5});
  service.upsert(population);
  service.screen();

  // Touch half the catalog: auto mode must choose the full path.
  std::vector<Satellite> delta(population.begin(),
                               population.begin() + 100);
  for (Satellite& sat : delta) sat.elements.mean_anomaly += 0.01;
  service.upsert(delta);
  const ServiceReport report = service.screen();
  EXPECT_FALSE(report.incremental);
  EXPECT_EQ(service.stats().full_screens, 2u);
  EXPECT_EQ(service.stats().incremental_screens, 0u);
}

TEST(ScreeningService, RemovalOnlyDeltaEvictsWithoutRescreening) {
  ScreeningService service(dense_options());
  service.upsert(generate_population({1200, 11}));
  const ServiceReport baseline = service.screen();
  ASSERT_FALSE(baseline.conjunctions.empty());  // workload sanity

  // Remove one member of some baseline conjunction.
  const std::uint32_t victim = baseline.conjunctions.front().id_a;
  ASSERT_TRUE(service.remove(victim));
  const ServiceReport report = service.screen(ScreenMode::kIncremental);

  EXPECT_TRUE(report.incremental);
  EXPECT_EQ(report.refreshed, 0u);
  EXPECT_GE(report.evicted, 1u);
  // No pipeline pass ran: phase timings stay zero.
  EXPECT_EQ(report.timings.insertion, 0.0);

  expect_equivalent(report.conjunctions, service.reference_conjunctions(),
                    "removal-only");
}

/// The acceptance test: randomized delta sequences (adds, updates,
/// removals), each followed by a forced-incremental screen whose merged
/// report must equal a from-scratch screen of the same snapshot.
TEST(ScreeningService, IncrementalMatchesFromScratchOverRandomDeltas) {
  ScreeningService service(dense_options());
  const auto population = generate_population({1500, 23});
  service.upsert(population);

  const ServiceReport baseline = service.screen();
  ASSERT_FALSE(baseline.conjunctions.empty());  // workload sanity
  expect_equivalent(baseline.conjunctions, service.reference_conjunctions(),
                    "baseline");

  Rng rng(99);
  std::uint32_t next_id = 1000000;
  for (int round = 0; round < 3; ++round) {
    // Updates: small maneuvers on random objects.
    const auto snap = service.store().snapshot();
    std::vector<Satellite> updates;
    for (int k = 0; k < 12; ++k) {
      Satellite sat = snap->satellites[rng.uniform_index(snap->size())];
      sat.elements.mean_anomaly += rng.uniform(-0.05, 0.05);
      sat.elements.raan += rng.uniform(-0.02, 0.02);
      updates.push_back(sat);
    }
    service.upsert(updates);

    // Removals: random objects (skip ones already gone this round).
    for (int k = 0; k < 2; ++k) {
      const auto current = service.store().snapshot();
      const Satellite& victim =
          current->satellites[rng.uniform_index(current->size())];
      service.remove(victim.id);
    }

    // Adds: new ids on perturbed clones of existing orbits.
    std::vector<Satellite> adds;
    for (int k = 0; k < 2; ++k) {
      Satellite sat = snap->satellites[rng.uniform_index(snap->size())];
      sat.id = next_id++;
      sat.elements.raan += rng.uniform(0.0, kTwoPi);
      sat.elements.mean_anomaly += rng.uniform(0.0, kTwoPi);
      adds.push_back(sat);
    }
    service.upsert(adds);

    const ServiceReport report = service.screen(ScreenMode::kIncremental);
    EXPECT_TRUE(report.incremental) << "round " << round;
    EXPECT_GE(report.dirty, updates.size()) << "round " << round;

    expect_equivalent(report.conjunctions, service.reference_conjunctions(),
                      ("round " + std::to_string(round)).c_str());
  }
  EXPECT_EQ(service.stats().incremental_screens, 3u);
}

TEST(ScreeningService, MaskedPlanOverBudgetFallsBackToFullScreen) {
  // A masked pass holds 27 table entries per dirty object, so with half the
  // catalog dirty it needs more memory than a full screen's n-entry cell
  // list. Under a budget that fits exactly one cell list, a
  // forced-incremental screen must fall back to a full one instead of
  // throwing.
  ServiceOptions options = dense_options();
  const auto population = generate_population({300, 5});
  SizingRequest request;
  request.satellites = population.size();
  request.span_seconds = options.config.span_seconds();
  request.seconds_per_sample = options.config.seconds_per_sample;
  request.warm_start = true;  // two-body propagation on the CPU
  const SizingPlan plan = plan_samples(request);
  options.config.memory_budget = plan.fixed_bytes + plan.per_grid_bytes;

  ScreeningService service(options);
  service.upsert(population);
  const ServiceReport baseline = service.screen();
  EXPECT_FALSE(baseline.incremental);
  EXPECT_EQ(baseline.stats.parallel_samples, 1u);

  std::vector<Satellite> delta(population.begin(), population.begin() + 150);
  for (Satellite& sat : delta) sat.elements.mean_anomaly += 0.01;
  service.upsert(delta);
  const ServiceReport report = service.screen(ScreenMode::kIncremental);
  EXPECT_FALSE(report.incremental);
  EXPECT_EQ(service.stats().full_screens, 2u);
  EXPECT_EQ(service.stats().incremental_screens, 0u);
  expect_equivalent(report.conjunctions, service.reference_conjunctions(),
                    "over-budget fallback");
}

TEST(ScreeningService, MaskedPassKeepsTheBaselinesSamplePeriod) {
  // A CPU screen reserves nothing for candidate keys, so neither the
  // baseline's full screen nor a masked pass lowers the pinned s_ps. The
  // budget fits the full screen's cell list, a masked pass's phantom table
  // and the count model's 20 000-candidate floor, but not the model's
  // buffer for the whole population at the pinned s_ps, which a plan
  // reserving it would have to sample more finely for. A
  // forced-incremental epoch must stay incremental and equal a
  // from-scratch screen.
  ServiceOptions options = dense_options();
  const auto population = generate_population({1000, 5});
  const std::size_t n = population.size();
  const ScreeningConfig& config = options.config;
  const std::uint64_t fixed = n * (kSatelliteBytes + kKeplerCacheBytes);
  const std::uint64_t table = CellList::projected_memory_bytes(n) + n * sizeof(double);
  const std::uint64_t floor_buffer = CandidateBuffer::projected_memory_bytes(20000);
  options.config.memory_budget = fixed + table + floor_buffer;
  const std::uint64_t full_buffer =
      CandidateBuffer::projected_memory_bytes(candidate_capacity_from_model(
          ConjunctionCountModel::paper_grid(), static_cast<double>(n),
          config.seconds_per_sample, config.span_seconds(), config.threshold_km));
  ASSERT_GT(full_buffer, table + floor_buffer);

  ScreeningService service(options);
  service.upsert(population);
  const ServiceReport baseline = service.screen();
  EXPECT_FALSE(baseline.incremental);
  EXPECT_EQ(baseline.stats.seconds_per_sample, config.seconds_per_sample);
  ASSERT_GT(baseline.conjunctions.size(), 0u);

  std::vector<Satellite> delta;
  for (std::size_t i = 0; i < n; i += 100) delta.push_back(population[i]);
  for (Satellite& sat : delta) sat.elements.mean_anomaly += 0.01;
  service.upsert(delta);
  const ServiceReport report = service.screen(ScreenMode::kIncremental);
  EXPECT_TRUE(report.incremental);
  EXPECT_EQ(report.stats.seconds_per_sample, config.seconds_per_sample);
  EXPECT_EQ(service.stats().full_screens, 1u);
  EXPECT_EQ(service.stats().incremental_screens, 1u);
  expect_equivalent(report.conjunctions, service.reference_conjunctions(),
                    "masked pass in a tight budget");
}

TEST(ScreeningService, DirtyObjectCrossingCellFaceAtSampleInstant) {
  // Edge case of the dirty mask: a delta moves an object across a grid-cell
  // boundary exactly at a sample instant. Its old-cell neighbours and its
  // new-cell neighbours are different sets; the incremental re-screen must
  // still pair it with the old ones (its registration covers the 26 cells
  // around its new one) and match the from-scratch reference exactly.
  const ServiceOptions options = dense_options();
  const double cell = grid_cell_size(options.config.threshold_km,
                                     options.config.seconds_per_sample);
  // A grid-cell face at LEO radius: x* = j * cell - half_extent. Computed
  // from grid_cell_size so the test tracks Eq. (1) instead of a constant.
  const double face =
      std::ceil((kSimulationHalfExtent + 7000.0) / cell) * cell -
      kSimulationHalfExtent;

  // A sits 100 m inside the face on the +x axis at t = 0 — which is a
  // sample instant (circular equatorial orbit, M0 = 0). B shadows it from
  // just beyond the face: the pair straddles the boundary permanently.
  Satellite a;
  a.id = 900001;  // clear of the generated population's id range
  a.elements.semi_major_axis = face - 0.1;
  Satellite b;
  b.id = 900002;
  b.elements.semi_major_axis = face + 0.5;
  b.elements.mean_anomaly = 2e-4;  // ~1.4 km along-track

  ScreeningService service(options);
  service.upsert(std::vector<Satellite>{a, b});
  service.upsert(generate_population({300, 5}));  // uninvolved traffic

  const ServiceReport baseline = service.screen();
  const auto involves_pair = [](const std::vector<IdConjunction>& list) {
    return std::any_of(list.begin(), list.end(), [](const IdConjunction& c) {
      return c.id_a == 900001 && c.id_b == 900002;
    });
  };
  ASSERT_TRUE(involves_pair(baseline.conjunctions));

  // The maneuver: A jumps 200 m outward, crossing the face. At the t = 0
  // sample it now quantizes into the neighbouring cell.
  a.elements.semi_major_axis = face + 0.1;
  service.upsert(a);
  const ServiceReport report = service.screen(ScreenMode::kIncremental);
  EXPECT_TRUE(report.incremental);
  EXPECT_GE(report.dirty, 1u);

  EXPECT_TRUE(involves_pair(report.conjunctions));
  expect_equivalent(report.conjunctions, service.reference_conjunctions(),
                    "cell-face crossing");

  // And back across, for the opposite transition.
  a.elements.semi_major_axis = face - 0.1;
  service.upsert(a);
  const ServiceReport back = service.screen(ScreenMode::kIncremental);
  EXPECT_TRUE(involves_pair(back.conjunctions));
  expect_equivalent(back.conjunctions, service.reference_conjunctions(),
                    "cell-face return");
}

TEST(ScreeningService, StatsCountersTrackActivity) {
  ScreeningService service(dense_options());
  const auto population = generate_population({100, 7});
  service.upsert(population);
  service.upsert(population.front());
  service.remove(population.front().id);
  service.screen();

  const ServiceStats& stats = service.stats();
  EXPECT_EQ(stats.upserts, population.size() + 1);
  EXPECT_EQ(stats.removals, 1u);
  EXPECT_EQ(stats.full_screens, 1u);
  EXPECT_EQ(stats.last_epoch_screened, service.store().epoch());
  EXPECT_GT(stats.total_screen_seconds, 0.0);
}

}  // namespace
}  // namespace scod
