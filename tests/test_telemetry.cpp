#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "core/grid_pipeline.hpp"
#include "core/report.hpp"
#include "core/screen.hpp"
#include "obs/telemetry.hpp"
#include "parallel/device.hpp"
#include "population/generator.hpp"
#include "propagation/contour_solver.hpp"
#include "propagation/two_body.hpp"
#include "service/screening_service.hpp"
#include "spatial/grid_hash_set.hpp"
#include "verify/case_io.hpp"

#ifndef SCOD_CORPUS_DIR
#error "SCOD_CORPUS_DIR must be defined by the build"
#endif

namespace scod {
namespace {

using obs::Counter;

std::uint64_t histogram_total(const obs::TelemetrySnapshot& snap) {
  return std::accumulate(snap.probe_histogram.begin(),
                         snap.probe_histogram.end(), std::uint64_t{0});
}

/// Every test runs with counters freshly zeroed and enabled; telemetry is
/// switched back off on exit so the rest of the binary pays nothing.
class Telemetry : public testing::Test {
 protected:
  void SetUp() override {
    if (!obs::compiled()) GTEST_SKIP() << "built with SCOD_TELEMETRY=OFF";
    obs::reset();
    obs::set_enabled(true);
  }
  void TearDown() override {
    if (obs::compiled()) {
      obs::set_enabled(false);
      obs::reset();
    }
  }

  static ScreeningConfig config(double threshold_km, double span,
                                double sps) {
    ScreeningConfig cfg;
    cfg.threshold_km = threshold_km;
    cfg.t_begin = 0.0;
    cfg.t_end = span;
    cfg.seconds_per_sample = sps;
    return cfg;
  }
};

TEST_F(Telemetry, RuntimeDisabledCountsNothing) {
  obs::set_enabled(false);
  const auto sats = generate_population({300, 7});
  screen(sats, config(10.0, 1800.0, 8.0), Variant::kGrid);
  const obs::TelemetrySnapshot snap = obs::snapshot();
  for (std::size_t i = 0; i < obs::kCounterCount; ++i) {
    EXPECT_EQ(snap.counters[i], 0u)
        << "counter " << obs::counter_name(static_cast<Counter>(i))
        << " incremented while telemetry was disabled";
  }
  EXPECT_EQ(histogram_total(snap), 0u);
}

TEST_F(Telemetry, ResetZeroesEverything) {
  const auto sats = generate_population({300, 7});
  screen(sats, config(10.0, 1800.0, 8.0), Variant::kGrid);
  ASSERT_GT(obs::snapshot().value(Counter::kGridInserts), 0u);
  obs::reset();
  const obs::TelemetrySnapshot snap = obs::snapshot();
  for (std::size_t i = 0; i < obs::kCounterCount; ++i) {
    EXPECT_EQ(snap.counters[i], 0u);
  }
  EXPECT_EQ(histogram_total(snap), 0u);
}

// The grid detection funnel is conservative: every tested pair is either
// masked clean, distance-prefiltered or emitted as a candidate — and the
// emitted count is exactly the pipeline's own candidate statistic.
TEST_F(Telemetry, GridFunnelConservation) {
  const auto sats = generate_population({400, 11});
  const ScreeningReport report =
      screen(sats, config(10.0, 1800.0, 8.0), Variant::kGrid);
  const obs::TelemetrySnapshot snap = obs::snapshot();

  const std::uint64_t tested = snap.value(Counter::kPairsTested);
  const std::uint64_t masked = snap.value(Counter::kPairsMaskedClean);
  const std::uint64_t prefiltered = snap.value(Counter::kPairsPrefiltered);
  const std::uint64_t reach_rejected = snap.value(Counter::kPairsReachRejected);
  const std::uint64_t emitted = snap.value(Counter::kCandidatesEmitted);
  const std::uint64_t deduped = snap.value(Counter::kCandidatesDeduplicated);
  ASSERT_GT(tested, 0u);
  EXPECT_GT(reach_rejected, 0u);
  EXPECT_EQ(tested, masked + prefiltered + reach_rejected + emitted);
  EXPECT_EQ(emitted, report.stats.candidates);
  // The half stencil emits each (pair, step) once and the candidate buffer
  // does not deduplicate; this population fits the paper's model.
  EXPECT_EQ(report.stats.candidate_set_growths, 0u);
  EXPECT_EQ(deduped, 0u);

  // Insertion side: one grid insert per propagated sample, and the probe
  // histogram partitions the inserts.
  const std::uint64_t samples = snap.value(Counter::kSamplesPropagated);
  const std::uint64_t inserts = snap.value(Counter::kGridInserts);
  EXPECT_EQ(samples,
            static_cast<std::uint64_t>(report.stats.total_samples) *
                report.stats.satellites);
  EXPECT_EQ(inserts, samples);
  EXPECT_EQ(histogram_total(snap), inserts);
  EXPECT_EQ(snap.value(Counter::kGridPoolRejects), 0u);

  // The front end rejected the candidates out of reach, so each emitted
  // one is searched, and the tail is monotone down to the reported set.
  const std::uint64_t refinements = snap.value(Counter::kRefinements);
  const std::uint64_t raw = snap.value(Counter::kConjunctionsRaw);
  const std::uint64_t reported = snap.value(Counter::kConjunctionsReported);
  EXPECT_EQ(refinements, emitted);
  EXPECT_GE(refinements, raw);
  EXPECT_GE(raw, reported);
  EXPECT_EQ(reported, report.conjunctions.size());
  EXPECT_EQ(refinements, report.stats.refinements);

  EXPECT_LE(snap.value(Counter::kCellsOccupied),
            snap.value(Counter::kCellsScanned));

  // Stage timers saw the phases that ran.
  EXPECT_GT(snap.value(Counter::kTimeInsertionNs), 0u);
  EXPECT_GT(snap.value(Counter::kTimeDetectionNs), 0u);
}

// Eq. 1 sizes cells at g_c = d + 7.8 s_ps and the paper's grid (devicesim)
// doubles the slot table, so scanned-slot occupancy stays at or below ~one
// half. A CPU full screen sweeps cell-list entries instead of slots, one
// per sample: its occupancy is occupied cells per sample, and its inserts
// take no probe steps.
TEST_F(Telemetry, GridOccupancyMatchesEq1Sizing) {
  const auto sats = generate_population({600, 3});
  ThreadPool four(4);
  Device device(DeviceProperties{}, &four);
  ScreeningConfig cfg = config(10.0, 1800.0, 8.0);
  cfg.device = &device;
  screen(sats, cfg, Variant::kGrid);
  const obs::TelemetrySnapshot snap = obs::snapshot();
  ASSERT_GT(snap.value(Counter::kCellsScanned), 0u);
  EXPECT_GT(snap.occupancy(), 0.0);
  EXPECT_LE(snap.occupancy(), 0.55);
  EXPECT_GE(snap.mean_probe_length(), 0.0);

  obs::reset();
  cfg.device = nullptr;
  screen(sats, cfg, Variant::kGrid);
  const obs::TelemetrySnapshot cpu = obs::snapshot();
  EXPECT_EQ(cpu.value(Counter::kCellsScanned), cpu.value(Counter::kSamplesPropagated));
  EXPECT_EQ(cpu.value(Counter::kCellsOccupied), snap.value(Counter::kCellsOccupied));
  EXPECT_GT(cpu.occupancy(), 0.0);
  EXPECT_LE(cpu.occupancy(), 1.0);
  EXPECT_EQ(cpu.mean_probe_length(), 0.0);
}

// The classical filter chain is conservative too: every pair entering it
// is rejected by exactly one filter or survives to refinement.
// The floor count model predicts far fewer candidates than a dense debris
// cloud produces. On the CPU nothing grows: each worker keeps its own key
// list. devicesim's candidate buffer grows and only its CD kernel re-runs,
// whose funnel counts replace the discarded run's. Either way every counter
// equals a roomy model's screen, and the insertion and funnel invariants
// stay exact.
TEST_F(Telemetry, RoundRerunAfterGrowCountsOnlyKeptWork) {
  const KeplerElements parent{7000.0, 0.001, 1.0, 0.5, 0.2, 1.0};
  const auto cloud = generate_debris_cloud(parent, 80, 0.05, 99);
  const ContourKeplerSolver solver;
  const TwoBodyPropagator propagator(cloud, solver);
  ConjunctionCountModel tiny = ConjunctionCountModel::paper_grid();
  tiny.coefficient = 1e-20;  // the 20 000-candidate floor: the cloud outgrows it
  ConjunctionCountModel roomy = ConjunctionCountModel::paper_grid();
  roomy.coefficient *= 1e6;  // far above what the cloud produces

  ThreadPool four(4);
  Device device(DeviceProperties{}, &four);
  for (const std::size_t threads : {1u, 4u, 0u}) {  // 0: devicesim
    ThreadPool pool(std::max<std::size_t>(threads, 1));
    // At d = 20 km most of the cloud's pairs stay within reach.
    ScreeningConfig cfg = config(20.0, 600.0, 4.0);
    cfg.pool = &pool;
    if (threads == 0) cfg.device = &device;
    const auto counted = [&](const ConjunctionCountModel& model, GridPipelineResult& result) {
      obs::reset();
      result = run_grid_pipeline(
          propagator, cfg, model, {},
          [](std::size_t, std::span<const std::uint64_t>, const GridPipelineResult&) {});
      return obs::snapshot();
    };
    GridPipelineResult result, roomy_result;
    const obs::TelemetrySnapshot roomy_snap = counted(roomy, roomy_result);
    const obs::TelemetrySnapshot snap = counted(tiny, result);
    if (threads == 0) {
      ASSERT_GT(result.candidate_set_growths, 0u);
    } else {
      EXPECT_EQ(result.candidate_set_growths, 0u) << threads;
    }
    EXPECT_EQ(roomy_result.candidate_set_growths, 0u) << threads;
    EXPECT_EQ(result.total_candidates, roomy_result.total_candidates) << threads;
    for (const Counter c :
         {Counter::kSamplesPropagated, Counter::kGridInserts, Counter::kCellsScanned,
          Counter::kCellsOccupied, Counter::kPairsTested, Counter::kPairsPrefiltered,
          Counter::kPairsReachRejected, Counter::kCandidatesEmitted}) {
      EXPECT_EQ(snap.value(c), roomy_snap.value(c)) << obs::counter_name(c) << " " << threads;
    }

    const std::uint64_t samples = snap.value(Counter::kSamplesPropagated);
    EXPECT_EQ(samples, result.plan.total_samples * cloud.size()) << threads;
    EXPECT_EQ(snap.value(Counter::kGridInserts), samples) << threads;
    EXPECT_EQ(histogram_total(snap), samples) << threads;
    EXPECT_EQ(snap.value(Counter::kCandidateSetGrowths), result.candidate_set_growths)
        << threads;
    EXPECT_EQ(snap.value(Counter::kCandidatesEmitted), result.total_candidates)
        << threads;
    EXPECT_EQ(snap.value(Counter::kPairsTested),
              snap.value(Counter::kPairsMaskedClean) +
                  snap.value(Counter::kPairsPrefiltered) +
                  snap.value(Counter::kPairsReachRejected) +
                  snap.value(Counter::kCandidatesEmitted))
        << threads;
    EXPECT_EQ(snap.value(Counter::kCandidatesDeduplicated), 0u) << threads;
    // A CPU step sweeps its n cell-list entries, a devicesim step scans
    // every slot of its grid.
    EXPECT_EQ(snap.value(Counter::kCellsScanned),
              result.plan.total_samples *
                  (threads == 0 ? GridHashSet(cloud.size()).slot_count() : cloud.size()))
        << threads;
  }
}

// A masked screen registers 27 phantoms per dirty object and step and
// looks every object up once per step; no clean-clean pair is tested.
// Under the floor count model its workers' key lists hold more candidates
// than the model predicts, and the counts equal a roomy model's screen.
TEST_F(Telemetry, MaskedScreenCountsPhantomWork) {
  const KeplerElements parent{7000.0, 0.001, 1.0, 0.5, 0.2, 1.0};
  const auto cloud = generate_debris_cloud(parent, 80, 0.05, 99);
  const ContourKeplerSolver solver;
  const TwoBodyPropagator propagator(cloud, solver);
  ConjunctionCountModel tiny = ConjunctionCountModel::paper_grid();
  tiny.coefficient = 1e-20;  // the 20 000-candidate floor: the cloud outgrows it
  ConjunctionCountModel roomy = ConjunctionCountModel::paper_grid();
  roomy.coefficient *= 1e6;  // far above what the cloud produces
  std::vector<std::uint8_t> mask(cloud.size(), 1);
  for (std::size_t i = 0; i < mask.size(); i += 3) mask[i] = 0;
  const std::uint64_t dirty = std::count(mask.begin(), mask.end(), 1);
  GridPipelineOptions options;
  options.dirty_mask = mask;

  ThreadPool one(1), four(4);
  for (const int threads : {1, 4}) {
    // At d = 20 km most of the cloud's pairs stay within reach.
    ScreeningConfig cfg = config(20.0, 600.0, 4.0);
    cfg.pool = threads == 1 ? &one : &four;
    const auto counted = [&](const ConjunctionCountModel& model, GridPipelineResult& result) {
      obs::reset();
      result = run_grid_pipeline(
          propagator, cfg, model, options,
          [](std::size_t, std::span<const std::uint64_t>, const GridPipelineResult&) {});
      return obs::snapshot();
    };
    GridPipelineResult result, roomy_result;
    const obs::TelemetrySnapshot roomy_snap = counted(roomy, roomy_result);
    const obs::TelemetrySnapshot snap = counted(tiny, result);
    EXPECT_GT(result.total_candidates, 20000u) << threads;
    EXPECT_EQ(result.candidate_set_growths, 0u) << threads;
    EXPECT_EQ(result.total_candidates, roomy_result.total_candidates) << threads;
    for (const Counter c :
         {Counter::kSamplesPropagated, Counter::kGridInserts, Counter::kCellsScanned,
          Counter::kCellsOccupied, Counter::kPairsTested, Counter::kPairsPrefiltered,
          Counter::kPairsReachRejected, Counter::kCandidatesEmitted}) {
      EXPECT_EQ(snap.value(c), roomy_snap.value(c)) << obs::counter_name(c) << " " << threads;
    }

    const std::uint64_t steps = result.plan.total_samples;
    EXPECT_EQ(snap.value(Counter::kSamplesPropagated), steps * cloud.size()) << threads;
    EXPECT_EQ(snap.value(Counter::kGridInserts), steps * 27 * dirty) << threads;
    EXPECT_EQ(histogram_total(snap), snap.value(Counter::kGridInserts)) << threads;
    EXPECT_EQ(snap.value(Counter::kCellsScanned), steps * cloud.size()) << threads;
    EXPECT_GT(snap.value(Counter::kCellsOccupied), 0u) << threads;
    EXPECT_LE(snap.value(Counter::kCellsOccupied), snap.value(Counter::kCellsScanned))
        << threads;
    EXPECT_EQ(snap.value(Counter::kPairsMaskedClean), 0u) << threads;
    EXPECT_EQ(snap.value(Counter::kPairsTested),
              snap.value(Counter::kPairsPrefiltered) +
                  snap.value(Counter::kPairsReachRejected) +
                  snap.value(Counter::kCandidatesEmitted))
        << threads;
    EXPECT_EQ(snap.value(Counter::kCandidatesEmitted), result.total_candidates)
        << threads;
  }
}

TEST_F(Telemetry, HybridFilterConservation) {
  const auto sats = generate_population({400, 11});
  const ScreeningReport report =
      screen(sats, config(10.0, 1800.0, 16.0), Variant::kHybrid);
  const obs::TelemetrySnapshot snap = obs::snapshot();

  const std::uint64_t in = snap.value(Counter::kFilterPairsIn);
  const std::uint64_t ap = snap.value(Counter::kFilterApogeePerigeeRejects);
  const std::uint64_t path_rej = snap.value(Counter::kFilterPathRejects);
  const std::uint64_t win_rej = snap.value(Counter::kFilterWindowRejects);
  const std::uint64_t survivors = snap.value(Counter::kFilterSurvivors);
  ASSERT_GT(in, 0u);
  EXPECT_EQ(in, ap + path_rej + win_rej + survivors);
  EXPECT_EQ(in, report.stats.pairs_examined);
  // The grid front end's funnel: the filters see only the distinct pairs
  // of the candidates it emitted, after the reach test.
  const std::uint64_t emitted = snap.value(Counter::kCandidatesEmitted);
  EXPECT_GT(snap.value(Counter::kPairsReachRejected), 0u);
  EXPECT_EQ(snap.value(Counter::kPairsTested),
            snap.value(Counter::kPairsMaskedClean) +
                snap.value(Counter::kPairsPrefiltered) +
                snap.value(Counter::kPairsReachRejected) + emitted);
  EXPECT_EQ(emitted, report.stats.candidates);
  EXPECT_LE(in, emitted);
  EXPECT_EQ(ap, report.stats.filtered_apogee_perigee);
  EXPECT_EQ(path_rej, report.stats.filtered_path);
  EXPECT_EQ(win_rej, report.stats.filtered_windows);
  EXPECT_EQ(snap.value(Counter::kFilterCoplanarPairs),
            report.stats.coplanar_pairs);

  // The node test sees every non-coplanar ap-pass pair, and the window
  // filter the pairs it leaves open.
  const std::uint64_t path_checks = snap.value(Counter::kFilterPathChecks);
  const std::uint64_t win_checks = snap.value(Counter::kFilterWindowChecks);
  const std::uint64_t coplanar = snap.value(Counter::kFilterCoplanarPairs);
  EXPECT_EQ(path_checks, in - ap - coplanar);
  EXPECT_EQ(win_checks, path_checks - path_rej);
  EXPECT_LE(win_rej, win_checks);
  EXPECT_LE(survivors, in);

  EXPECT_EQ(snap.value(Counter::kConjunctionsReported),
            report.conjunctions.size());
  EXPECT_GT(snap.value(Counter::kTimeFilteringNs), 0u);
}

TEST_F(Telemetry, LegacyFilterConservation) {
  const auto sats = generate_population({200, 5});
  const ScreeningReport report =
      screen(sats, config(10.0, 1800.0, 16.0), Variant::kLegacy);
  const obs::TelemetrySnapshot snap = obs::snapshot();

  const std::uint64_t in = snap.value(Counter::kFilterPairsIn);
  const std::uint64_t ap = snap.value(Counter::kFilterApogeePerigeeRejects);
  const std::uint64_t path_rej = snap.value(Counter::kFilterPathRejects);
  const std::uint64_t win_rej = snap.value(Counter::kFilterWindowRejects);
  const std::uint64_t survivors = snap.value(Counter::kFilterSurvivors);
  ASSERT_EQ(in, static_cast<std::uint64_t>(sats.size()) * (sats.size() - 1) / 2);
  EXPECT_EQ(in, ap + path_rej + win_rej + survivors);
  EXPECT_EQ(snap.value(Counter::kFilterPathChecks),
            in - ap - snap.value(Counter::kFilterCoplanarPairs));

  // The legacy funnel never touches the grid-side counters.
  EXPECT_EQ(snap.value(Counter::kPairsTested), 0u);
  EXPECT_EQ(snap.value(Counter::kGridInserts), 0u);

  EXPECT_GE(snap.value(Counter::kRefinements),
            snap.value(Counter::kConjunctionsRaw));
  EXPECT_EQ(snap.value(Counter::kConjunctionsReported),
            report.conjunctions.size());
}

// Grid and hybrid must report the same physical conjunctions while their
// telemetry funnels look completely different: the grid burns pair tests
// in cells, the hybrid burns classical filter evaluations. Events within
// 10% of the threshold are exempt from the cross-check (refinement jitter
// legitimately flips them), matching the accuracy-suite convention.
TEST_F(Telemetry, GridAndHybridAgreeWithDifferentFunnels) {
  constexpr double kThreshold = 10.0;
  const auto sats = generate_population({400, 17});
  const ScreeningReport grid_report =
      screen(sats, config(kThreshold, 1800.0, 4.0), Variant::kGrid);
  const obs::TelemetrySnapshot grid_snap = obs::snapshot();

  obs::reset();
  const ScreeningReport hybrid_report =
      screen(sats, config(kThreshold, 1800.0, 16.0), Variant::kHybrid);
  const obs::TelemetrySnapshot hybrid_snap = obs::snapshot();

  const auto confident = [&](const std::vector<Conjunction>& all) {
    std::vector<Conjunction> out;
    for (const Conjunction& c : all) {
      if (c.pca <= 0.9 * kThreshold) out.push_back(c);
    }
    return out;
  };
  const ConjunctionSetDiff grid_in_hybrid = compare_conjunction_sets(
      confident(grid_report.conjunctions), hybrid_report.conjunctions);
  EXPECT_TRUE(grid_in_hybrid.only_in_first.empty())
      << grid_in_hybrid.only_in_first.size() << " grid events hybrid missed";
  EXPECT_TRUE(grid_in_hybrid.pca_mismatches.empty());
  const ConjunctionSetDiff hybrid_in_grid = compare_conjunction_sets(
      confident(hybrid_report.conjunctions), grid_report.conjunctions);
  EXPECT_TRUE(hybrid_in_grid.only_in_first.empty())
      << hybrid_in_grid.only_in_first.size() << " hybrid events grid missed";

  // Same answer, different funnels: the pure grid never consults the
  // classical filters, while the hybrid runs its grid candidates through
  // them before refinement.
  EXPECT_GT(grid_snap.value(Counter::kPairsTested), 0u);
  EXPECT_EQ(grid_snap.value(Counter::kFilterPairsIn), 0u);
  EXPECT_GT(hybrid_snap.value(Counter::kPairsTested), 0u);
  EXPECT_GT(hybrid_snap.value(Counter::kFilterPairsIn), 0u);
}

// The service's path counters mirror its full / incremental / cached
// decision and its merge bookkeeping.
TEST_F(Telemetry, ServicePathCounters) {
  ServiceOptions options;
  options.config = config(10.0, 1800.0, 8.0);
  ScreeningService service(options);
  const auto sats = generate_population({400, 23});
  service.upsert(std::span<const Satellite>(sats));

  const ServiceReport first = service.screen();
  obs::TelemetrySnapshot snap = obs::snapshot();
  EXPECT_FALSE(first.incremental);
  ASSERT_GT(first.conjunctions.size(), 0u)
      << "workload produced no conjunctions; carried/refreshed checks vacuous";
  EXPECT_EQ(snap.value(Counter::kServiceFullScreens), 1u);
  EXPECT_EQ(snap.value(Counter::kServiceIncrementalScreens), 0u);
  EXPECT_EQ(snap.value(Counter::kServiceCachedScreens), 0u);
  EXPECT_EQ(snap.value(Counter::kServiceSnapshotObjects), sats.size());

  // No delta: the baseline is returned, counted as a cached screen.
  service.screen();
  snap = obs::snapshot();
  EXPECT_EQ(snap.value(Counter::kServiceFullScreens), 1u);
  EXPECT_EQ(snap.value(Counter::kServiceCachedScreens), 1u);

  // A one-object delta goes down the incremental path and the dirty /
  // carried bookkeeping shows up.
  Satellite touched = sats.front();
  touched.elements.mean_anomaly += 0.25;
  service.upsert(touched);
  const ServiceReport third = service.screen();
  snap = obs::snapshot();
  EXPECT_TRUE(third.incremental);
  EXPECT_EQ(snap.value(Counter::kServiceIncrementalScreens), 1u);
  EXPECT_EQ(snap.value(Counter::kServiceDirtyObjects), 1u);
  EXPECT_GT(snap.value(Counter::kServiceCarried) +
                snap.value(Counter::kServiceRefreshed),
            0u);
}

// Corpus replay with exact expectations: the counters of a deterministic
// single-threaded quantity must match the report exactly, and running the
// same case twice must exactly double them. (Probe steps and CAS retries
// depend on thread interleaving and are deliberately not pinned.)
TEST_F(Telemetry, CorpusReplayExactCounters) {
  const verify::FuzzCase fuzz_case =
      verify::load_case(std::string(SCOD_CORPUS_DIR) + "/seed-101.case");
  ASSERT_GT(fuzz_case.size(), 0u);

  const ScreeningReport report =
      screen(fuzz_case.satellites, fuzz_case.config, Variant::kGrid);
  const obs::TelemetrySnapshot once = obs::snapshot();

  EXPECT_EQ(once.value(Counter::kCandidatesEmitted), report.stats.candidates);
  EXPECT_EQ(once.value(Counter::kRefinements), report.stats.refinements);
  EXPECT_EQ(once.value(Counter::kConjunctionsReported),
            report.conjunctions.size());
  EXPECT_EQ(once.value(Counter::kSamplesPropagated),
            static_cast<std::uint64_t>(report.stats.total_samples) *
                report.stats.satellites);
  EXPECT_EQ(once.value(Counter::kGridInserts),
            once.value(Counter::kSamplesPropagated));
  EXPECT_EQ(histogram_total(once), once.value(Counter::kGridInserts));

  obs::reset();
  screen(fuzz_case.satellites, fuzz_case.config, Variant::kGrid);
  screen(fuzz_case.satellites, fuzz_case.config, Variant::kGrid);
  const obs::TelemetrySnapshot twice = obs::snapshot();
  for (const Counter c :
       {Counter::kSamplesPropagated, Counter::kGridInserts,
        Counter::kPairsTested, Counter::kCandidatesEmitted,
        Counter::kRefinements, Counter::kConjunctionsRaw,
        Counter::kConjunctionsReported}) {
    EXPECT_EQ(twice.value(c), 2 * once.value(c))
        << "counter " << obs::counter_name(c)
        << " is not deterministic across identical runs";
  }
}

// Counter names are the JSON keys: each must be non-empty and distinct.
TEST_F(Telemetry, CounterNamesAreDistinct) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < obs::kCounterCount; ++i) {
    const std::string name = obs::counter_name(static_cast<Counter>(i));
    EXPECT_FALSE(name.empty()) << i;
    EXPECT_TRUE(names.insert(name).second) << "duplicate " << name;
  }
}

// The JSON snapshot carries every counter by name plus the derived fields.
TEST_F(Telemetry, SnapshotJsonContainsAllCounters) {
  const auto sats = generate_population({200, 29});
  screen(sats, config(10.0, 1800.0, 8.0), Variant::kGrid);
  const std::string json = obs::snapshot().to_json();
  for (std::size_t i = 0; i < obs::kCounterCount; ++i) {
    const std::string key =
        std::string("\"") + obs::counter_name(static_cast<Counter>(i)) + "\"";
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
  EXPECT_NE(json.find("\"probe_histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"occupancy\""), std::string::npos);
  EXPECT_NE(json.find("\"mean_probe_length\""), std::string::npos);
}

}  // namespace
}  // namespace scod
