#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/context.hpp"
#include "core/grid_screener.hpp"
#include "core/screen.hpp"
#include "obs/telemetry.hpp"
#include "parallel/thread_pool.hpp"
#include "population/generator.hpp"
#include "propagation/contour_solver.hpp"
#include "propagation/two_body.hpp"
#include "service/screening_service.hpp"
#include "verify/case_io.hpp"
#include "verify/differential.hpp"

#ifndef SCOD_CORPUS_DIR
#error "SCOD_CORPUS_DIR must be defined by the build"
#endif

namespace scod {
namespace {

ScreeningConfig make_config(double threshold_km = 10.0, double span = 1800.0,
                            double sps = 8.0) {
  ScreeningConfig cfg;
  cfg.threshold_km = threshold_km;
  cfg.t_begin = 0.0;
  cfg.t_end = span;
  cfg.seconds_per_sample = sps;
  return cfg;
}

/// The contract under test: a report computed through a warm context must
/// match a cold one to the last bit — not within tolerance.
void expect_bit_identical(const ScreeningReport& cold, const ScreeningReport& warm,
                          const std::string& label) {
  ASSERT_EQ(warm.conjunctions.size(), cold.conjunctions.size()) << label;
  for (std::size_t i = 0; i < cold.conjunctions.size(); ++i) {
    EXPECT_EQ(warm.conjunctions[i].sat_a, cold.conjunctions[i].sat_a) << label;
    EXPECT_EQ(warm.conjunctions[i].sat_b, cold.conjunctions[i].sat_b) << label;
    // EXPECT_EQ, not EXPECT_DOUBLE_EQ: zero ULPs of slack.
    EXPECT_EQ(warm.conjunctions[i].tca, cold.conjunctions[i].tca) << label;
    EXPECT_EQ(warm.conjunctions[i].pca, cold.conjunctions[i].pca) << label;
  }
  EXPECT_EQ(warm.stats.satellites, cold.stats.satellites) << label;
  EXPECT_EQ(warm.stats.total_samples, cold.stats.total_samples) << label;
  EXPECT_EQ(warm.stats.rounds, cold.stats.rounds) << label;
  EXPECT_EQ(warm.stats.seconds_per_sample, cold.stats.seconds_per_sample) << label;
  EXPECT_EQ(warm.stats.cell_size_km, cold.stats.cell_size_km) << label;
  EXPECT_EQ(warm.stats.candidates, cold.stats.candidates) << label;
  EXPECT_EQ(warm.stats.pairs_examined, cold.stats.pairs_examined) << label;
  EXPECT_EQ(warm.stats.refinements, cold.stats.refinements) << label;
  EXPECT_EQ(warm.stats.candidate_set_growths, cold.stats.candidate_set_growths)
      << label;
}

TEST(Context, WarmRepeatScreensAreBitIdenticalAcrossVariants) {
  const auto sats = generate_population({150, 21});
  const ScreeningConfig cfg = make_config();

  for (const Variant variant : kAllVariants) {
    const ScreeningReport cold = make_screener(variant)->screen(sats, cfg);

    ScreeningContext context;
    const auto screener = make_screener(variant, &context);
    for (int repeat = 0; repeat < 3; ++repeat) {
      const ScreeningReport warm = screener->screen(sats, cfg);
      expect_bit_identical(cold, warm,
                           std::string(variant_name(variant)) + " repeat " +
                               std::to_string(repeat));
    }
  }
}

TEST(Context, InterleavedPopulationSizesStayBitIdentical) {
  // Alternating sizes forces the arena down both paths: exact-size reuse
  // (same n as the previous screen) and rebuild (n changed, cached grids
  // and candidate buffer are the wrong geometry).
  const auto big = generate_population({400, 5});
  const auto small = generate_population({120, 6});
  const ScreeningConfig cfg = make_config();

  const ScreeningReport cold_big = make_screener(Variant::kGrid)->screen(big, cfg);
  const ScreeningReport cold_small =
      make_screener(Variant::kGrid)->screen(small, cfg);

  ScreeningContext context;
  const auto screener = make_screener(Variant::kGrid, &context);
  expect_bit_identical(cold_big, screener->screen(big, cfg), "big #1");
  expect_bit_identical(cold_small, screener->screen(small, cfg), "small after big");
  expect_bit_identical(cold_big, screener->screen(big, cfg), "big after small");
  expect_bit_identical(cold_big, screener->screen(big, cfg), "big repeat");
}

TEST(Context, WarmScreensActuallyReuseTheArena) {
  const auto sats = generate_population({200, 9});
  const ScreeningConfig cfg = make_config();

  ScreeningContext context;
  const auto screener = make_screener(Variant::kGrid, &context);
  screener->screen(sats, cfg);
  const ScratchArena::Stats after_first = context.arena().stats();
  EXPECT_EQ(after_first.grid_reuses, 0u);
  EXPECT_GT(after_first.grid_rebuilds, 0u);
  EXPECT_GT(context.arena().memory_bytes(), 0u);

  screener->screen(sats, cfg);
  const ScratchArena::Stats after_second = context.arena().stats();
  EXPECT_GT(after_second.grid_reuses, 0u);
  EXPECT_EQ(after_second.grid_rebuilds, after_first.grid_rebuilds);
  EXPECT_GT(after_second.candidate_reuses, 0u);

  // release() returns to the cold-start state: next screen rebuilds.
  context.arena().release();
  EXPECT_EQ(context.arena().memory_bytes(), 0u);
  screener->screen(sats, cfg);
  EXPECT_GT(context.arena().stats().grid_rebuilds, after_second.grid_rebuilds);
}

TEST(Context, MultiRoundWarmMatchesCold) {
  // A multi-round screen recycles the candidate buffer between rounds and
  // refines in between; a warm context must still reproduce a cold screen.
  const auto sats = generate_population({150, 13});
  ScreeningConfig cfg = make_config();
  cfg.memory_budget = 2 << 20;  // force several rounds

  for (const Variant variant : {Variant::kGrid, Variant::kHybrid}) {
    const std::string label = variant_name(variant);
    const ScreeningReport cold = make_screener(variant)->screen(sats, cfg);
    EXPECT_GT(cold.stats.rounds, 1u) << label;

    ScreeningContext context;
    const auto warm_screener = make_screener(variant, &context);
    warm_screener->screen(sats, cfg);  // prime the arena
    const ScreeningReport warm = warm_screener->screen(sats, cfg);
    expect_bit_identical(cold, warm, label);
    EXPECT_GT(context.arena().stats().grid_reuses, 0u) << label;
  }
}

TEST(Context, ArenaShrinksGrosslyOversizedBuffers) {
  ScratchArena arena;
  std::vector<double>& big = arena.vmax(100000);
  EXPECT_EQ(big.size(), 100000u);
  const std::size_t held = big.capacity();

  std::vector<double>& small = arena.vmax(10);
  EXPECT_EQ(small.size(), 10u);
  EXPECT_LT(small.capacity(), held);
  EXPECT_GE(arena.stats().vector_shrinks, 1u);

  // A modest size drop is NOT shrunk: reallocation would cost more than
  // the slack is worth.
  arena.vmax(5000);
  const std::uint64_t shrinks = arena.stats().vector_shrinks;
  arena.vmax(4000);
  EXPECT_EQ(arena.stats().vector_shrinks, shrinks);
}

TEST(Context, ArenaGridsRebuildWhenEntryCapacityChanges) {
  ScratchArena arena;
  const std::vector<GridHashSet>& first = arena.grids(4, 1000);
  ASSERT_EQ(first.size(), 4u);
  EXPECT_EQ(arena.stats().grid_reuses, 0u);
  EXPECT_EQ(arena.stats().grid_rebuilds, 4u);
  const std::size_t slots = first[0].slot_count();

  // Same entries: all four come back reused, same slot tables.
  const std::vector<GridHashSet>& again = arena.grids(4, 1000);
  EXPECT_EQ(arena.stats().grid_reuses, 4u);
  EXPECT_EQ(arena.stats().grid_rebuilds, 4u);
  EXPECT_EQ(again[0].slot_count(), slots);

  // Fewer grids wanted: surplus is released, the rest reused.
  const std::vector<GridHashSet>& fewer = arena.grids(2, 1000);
  EXPECT_EQ(fewer.size(), 2u);
  EXPECT_EQ(arena.stats().grid_reuses, 6u);
  EXPECT_EQ(arena.stats().grid_rebuilds, 4u);

  // Different entry capacity: the slot table would differ from a cold
  // screen's, so everything is rebuilt.
  const std::vector<GridHashSet>& resized = arena.grids(2, 500);
  EXPECT_EQ(arena.stats().grid_reuses, 6u);
  EXPECT_EQ(arena.stats().grid_rebuilds, 6u);
  EXPECT_NE(resized[0].slot_count(), slots);
}

TEST(Context, ArenaCandidatesRebuildOnCapacityMismatch) {
  ScratchArena arena;
  CandidateBuffer& first = arena.candidates(1 << 12);
  EXPECT_EQ(first.capacity(), std::size_t{1} << 12);
  first.insert(1, 2, 3);
  ASSERT_EQ(first.size(), 1u);

  // Same capacity: reused, and handed back cleared.
  CandidateBuffer& same = arena.candidates(1 << 12);
  EXPECT_EQ(same.size(), 0u);
  EXPECT_EQ(arena.stats().candidate_reuses, 1u);

  // Different capacity (e.g. the previous screen's grow() doubled it, or
  // the sizing plan changed): rebuilt at exactly the requested size.
  CandidateBuffer& grown = arena.candidates(1 << 13);
  EXPECT_EQ(grown.capacity(), std::size_t{1} << 13);
  EXPECT_EQ(arena.stats().candidate_rebuilds, 2u);
}

TEST(Context, ArenaValidFlagsComeBackZeroFilled) {
  ScratchArena arena;
  std::vector<std::uint8_t>& flags = arena.valid_flags(64);
  for (std::uint8_t& f : flags) f = 1;
  const std::vector<std::uint8_t>& fresh = arena.valid_flags(64);
  for (const std::uint8_t f : fresh) EXPECT_EQ(f, 0);
}

TEST(Context, UseIsReentrantOnOwnerThreadAndThrowsAcrossThreads) {
  ScreeningContext context;
  ScreeningContext::Use outer(context);
  // Nested acquisition on the same thread is the normal case: screen(span)
  // delegates to screen(propagator), refinement runs mid-pipeline.
  { ScreeningContext::Use inner(context); }

  bool threw = false;
  std::thread intruder([&] {
    try {
      ScreeningContext::Use stolen(context);
    } catch (const std::logic_error&) {
      threw = true;
    }
  });
  intruder.join();
  EXPECT_TRUE(threw) << "concurrent cross-thread use must be rejected";
}

TEST(Context, ServiceReusesItsContextAcrossEpochs) {
  ServiceOptions options;
  options.config = make_config();
  ScreeningService service(options);
  service.upsert(generate_population({250, 17}));

  const ServiceReport first = service.screen(ScreenMode::kFull);
  const ScratchArena::Stats after_first = service.context().arena().stats();
  EXPECT_GT(after_first.grid_rebuilds, 0u);
  EXPECT_EQ(after_first.grid_reuses, 0u);

  const ServiceReport second = service.screen(ScreenMode::kFull);
  EXPECT_GT(service.context().arena().stats().grid_reuses, 0u);

  ASSERT_EQ(second.conjunctions.size(), first.conjunctions.size());
  for (std::size_t i = 0; i < first.conjunctions.size(); ++i) {
    EXPECT_EQ(second.conjunctions[i].id_a, first.conjunctions[i].id_a);
    EXPECT_EQ(second.conjunctions[i].id_b, first.conjunctions[i].id_b);
    EXPECT_EQ(second.conjunctions[i].tca, first.conjunctions[i].tca);
    EXPECT_EQ(second.conjunctions[i].pca, first.conjunctions[i].pca);
  }

  // An incremental pass through the same warm context still matches the
  // deliberately-cold reference.
  auto snap = service.store().snapshot();
  Satellite touched = snap->satellites[3];
  touched.elements.mean_anomaly += 0.01;
  service.upsert(touched);
  const ServiceReport incremental = service.screen(ScreenMode::kIncremental);
  const std::vector<IdConjunction> reference = service.reference_conjunctions();
  ASSERT_EQ(incremental.conjunctions.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(incremental.conjunctions[i].id_a, reference[i].id_a);
    EXPECT_EQ(incremental.conjunctions[i].id_b, reference[i].id_b);
    EXPECT_EQ(incremental.conjunctions[i].tca, reference[i].tca);
  }
}

TEST(Context, TelemetryCountersIdenticalColdVersusWarm) {
  if (!obs::compiled()) GTEST_SKIP() << "built with SCOD_TELEMETRY=OFF";
  // A single-thread pool makes the probe/CAS counters deterministic, so
  // the whole snapshot (minus wall-clock timers) must replay exactly.
  ThreadPool one(1);
  const auto sats = generate_population({150, 41});
  ScreeningConfig cfg = make_config();
  cfg.pool = &one;

  const auto snapshot_of = [&](const Screener& screener) {
    obs::reset();
    obs::set_enabled(true);
    screener.screen(sats, cfg);
    obs::set_enabled(false);
    return obs::snapshot();
  };

  const obs::TelemetrySnapshot cold = snapshot_of(*make_screener(Variant::kGrid));
  ScreeningContext context;
  const auto warm_screener = make_screener(Variant::kGrid, &context);
  snapshot_of(*warm_screener);  // prime the arena
  const obs::TelemetrySnapshot warm = snapshot_of(*warm_screener);

  const auto first_timer = static_cast<std::size_t>(obs::Counter::kTimeInsertionNs);
  for (std::size_t i = 0; i < first_timer; ++i) {
    EXPECT_EQ(warm.counters[i], cold.counters[i])
        << obs::counter_name(static_cast<obs::Counter>(i));
  }
  for (std::size_t i = 0; i < warm.probe_histogram.size(); ++i) {
    EXPECT_EQ(warm.probe_histogram[i], cold.probe_histogram[i])
        << "probe bucket " << i;
  }
  obs::reset();
}

TEST(Context, TelemetryOptionEnablesCountersForTheScreenOnly) {
  if (!obs::compiled()) GTEST_SKIP() << "built with SCOD_TELEMETRY=OFF";
  obs::reset();
  obs::set_enabled(false);

  ScreeningContext::Options options;
  options.telemetry = true;
  ScreeningContext context(options);
  const auto sats = generate_population({100, 3});
  make_screener(Variant::kGrid, &context)->screen(sats, make_config());

  EXPECT_FALSE(obs::enabled()) << "enablement must be restored after the screen";
  EXPECT_GT(obs::snapshot().value(obs::Counter::kGridInserts), 0u);
  obs::reset();
}

TEST(Context, SharedContextCorpusReplayFindsNoStateLeaks) {
  // The regression corpus through the differential runner in context-reuse
  // mode: one context across every case, warm reruns bit-compared to cold.
  ScreeningContext shared;
  verify::DifferentialOptions options;
  options.shared_context = &shared;
  options.check_service = false;  // exercised by test_service / scod_fuzz
  options.check_counters = false;

  const auto paths = verify::list_corpus(SCOD_CORPUS_DIR);
  ASSERT_FALSE(paths.empty());
  for (const std::string& path : paths) {
    const verify::CaseResult result =
        verify::run_differential(verify::load_case(path), options);
    for (const verify::Divergence& d : result.divergences) {
      ADD_FAILURE() << path << ": [" << d.screener << "/"
                    << verify::divergence_kind_name(d.kind) << "] " << d.detail;
    }
  }
}

}  // namespace
}  // namespace scod
