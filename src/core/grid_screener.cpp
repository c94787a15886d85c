#include "core/grid_screener.hpp"

#include <cstdint>
#include <optional>

#include "core/exec.hpp"
#include "obs/telemetry.hpp"
#include "pca/pair_evaluator.hpp"
#include "pca/refine.hpp"
#include "util/stopwatch.hpp"

namespace scod {

namespace {

/// Step 4 for one round's candidate keys: Brent refinement, one logical
/// thread per candidate. Appends the raw (unmerged) sub-threshold
/// conjunctions to `raw`.
void refine_candidates(const Propagator& propagator, const ScreeningConfig& config,
                       const GridPipelineResult& pipeline,
                       std::span<const std::uint64_t> keys, detail::RefineSlots& slots,
                       std::vector<Conjunction>& raw) {
  const RefineFastPath fast = RefineFastPath::probe(propagator);
  slots.run(
      config, keys.size(),
      [&](std::size_t i, Conjunction& slot) {
        const Candidate c = unpack_candidate(keys[i]);
        const double t_s = pipeline.sample_time(c.step, config.t_begin, config.t_end);
        const std::optional<Encounter> found =
            fast.visit(c.sat_a, c.sat_b, [&](const auto& eval) {
              return refine_grid_candidate(eval, t_s, pipeline.cell_size,
                                           config.threshold_km, config.t_begin,
                                           config.t_end);
            });
        if (!found.has_value()) return false;
        slot = {c.sat_a, c.sat_b, found->tca, found->pca};
        return true;
      },
      raw);
}

}  // namespace

GridScreener::GridScreener(GridPipelineOptions options) : options_(std::move(options)) {}

ScreeningReport GridScreener::run(const Propagator& propagator,
                                  const ScreeningConfig& config) const {
  // Step 4 runs on each round's candidates as the round drains, so a
  // screen holds one round's candidates at a time; merging waits for the
  // whole span, where a minimum found from both sides of a round boundary
  // collapses into one conjunction. The rounds share one set of slots.
  std::vector<Conjunction> raw;
  detail::RefineSlots slots;
  double refine_seconds = 0.0;
  const GridRoundSink refine_round = [&](std::size_t, std::span<const std::uint64_t> keys,
                                         const GridPipelineResult& pipeline) {
    Stopwatch watch;
    refine_candidates(propagator, config, pipeline, keys, slots, raw);
    refine_seconds += watch.seconds();
  };
  const GridPipelineResult pipeline = run_grid_pipeline(
      propagator, with_sample_period(config, kDefaultSecondsPerSample),
      ConjunctionCountModel::paper_grid(), options_, refine_round);

  ScreeningReport report;
  Stopwatch merge_watch;
  report.conjunctions = merge_conjunctions(std::move(raw), kMergeToleranceSeconds);
  report.timings.refinement = refine_seconds + merge_watch.seconds();
  obs::add_seconds(obs::Counter::kTimeRefinementNs, report.timings.refinement);
  obs::count(obs::Counter::kConjunctionsReported, report.conjunctions.size());
  fill_pipeline_stats(report, propagator.size(), pipeline);
  // The front end rejected the candidates out of reach, so every
  // candidate is searched.
  report.stats.refinements = pipeline.total_candidates;
  return report;
}

}  // namespace scod
