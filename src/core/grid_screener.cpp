#include "core/grid_screener.hpp"

#include <cstdint>
#include <unordered_map>

#include "core/context.hpp"
#include "core/exec.hpp"
#include "obs/telemetry.hpp"
#include "pca/pair_evaluator.hpp"
#include "pca/refine.hpp"
#include "util/stopwatch.hpp"

namespace scod {

namespace {

/// Step 4 for one batch of candidates: Brent refinement, one logical
/// thread per candidate (kernel-style fixed output slots keep the phase
/// lock-free). Returns the raw (unmerged) sub-threshold conjunctions.
std::vector<Conjunction> refine_candidates(const Propagator& propagator,
                                           const ScreeningConfig& config,
                                           const GridPipelineResult& pipeline,
                                           const std::vector<Candidate>& candidates,
                                           ScratchArena& arena) {
  std::vector<Conjunction>& slots = arena.conjunction_slots(candidates.size());
  std::vector<std::uint8_t>& valid = arena.valid_flags(candidates.size());

  const RefineFastPath fast = RefineFastPath::probe(propagator);
  detail::execute(config, candidates.size(), [&](std::size_t i) {
    const Candidate& c = candidates[i];
    const double t_s = pipeline.sample_time(c.step, config.t_begin, config.t_end);
    const std::optional<Encounter> encounter =
        fast.visit(c.sat_a, c.sat_b, [&](const auto& eval) {
          return refine_grid_candidate(eval, t_s, pipeline.cell_size, config.t_begin,
                                       config.t_end, config.refine);
        });
    if (encounter.has_value() && encounter->pca <= config.threshold_km) {
      slots[i] = {c.sat_a, c.sat_b, encounter->tca, encounter->pca};
      valid[i] = 1;
    }
  });

  std::vector<Conjunction> raw;
  raw.reserve(candidates.size() / 4 + 1);
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (valid[i]) raw.push_back(slots[i]);
  }
  obs::count(obs::Counter::kConjunctionsRaw, raw.size());
  return raw;
}

}  // namespace

GridScreener::GridScreener(GridPipelineOptions options, ScreeningContext* context)
    : ScreenerBase(context), options_(std::move(options)) {}

ScreeningReport GridScreener::run(const Propagator& propagator,
                                  const ScreeningConfig& config,
                                  ScreeningContext& context) const {
  const GridPipelineResult pipeline = run_grid_pipeline(
      propagator, with_sample_period(config, kDefaultSecondsPerSample),
      ConjunctionCountModel::paper_grid(), options_, context);

  ScreeningReport report;
  Stopwatch refine_watch;
  report.conjunctions =
      merge_conjunctions(refine_candidates(propagator, config, pipeline,
                                           pipeline.candidates, context.arena()),
                         config.effective_merge_tolerance());
  report.timings.refinement = refine_watch.seconds();
  obs::add_seconds(obs::Counter::kTimeRefinementNs, report.timings.refinement);
  obs::count(obs::Counter::kConjunctionsReported, report.conjunctions.size());
  fill_pipeline_stats(report, propagator.size(), pipeline);
  return report;
}

ScreeningReport GridScreener::screen_streaming(const Propagator& propagator,
                                               const ScreeningConfig& caller_config,
                                               const ConjunctionSink& sink) const {
  return with_context(caller_config, [&](ScreeningContext& context,
                                         const ScreeningConfig& config) {
    const double merge_tolerance = config.effective_merge_tolerance();
    double refine_seconds = 0.0;
    // Last emitted TCA per pair, to suppress duplicates of a minimum found
    // from both sides of a round boundary.
    std::unordered_map<std::uint64_t, double> last_emitted;

    const GridRoundSink round_sink = [&](std::size_t round,
                                         std::vector<Candidate>&& candidates,
                                         const GridPipelineResult& pipeline) {
      Stopwatch watch;
      std::vector<Conjunction> merged = merge_conjunctions(
          refine_candidates(propagator, config, pipeline, candidates,
                            context.arena()),
          merge_tolerance);

      std::vector<Conjunction> fresh;
      fresh.reserve(merged.size());
      for (const Conjunction& c : merged) {
        const std::uint64_t key =
            (static_cast<std::uint64_t>(c.sat_a) << 32) | c.sat_b;
        const auto it = last_emitted.find(key);
        if (it == last_emitted.end() || c.tca - it->second > merge_tolerance) {
          fresh.push_back(c);
          last_emitted[key] = c.tca;
        }
      }
      const double round_seconds = watch.seconds();
      refine_seconds += round_seconds;
      obs::add_seconds(obs::Counter::kTimeRefinementNs, round_seconds);
      obs::count(obs::Counter::kConjunctionsReported, fresh.size());
      sink(round, fresh);
    };

    const GridPipelineResult pipeline = run_grid_pipeline_streaming(
        propagator, with_sample_period(config, kDefaultSecondsPerSample),
        ConjunctionCountModel::paper_grid(), options_, context, round_sink);

    ScreeningReport report;
    report.timings.refinement = refine_seconds;
    fill_pipeline_stats(report, propagator.size(), pipeline);
    return report;
  });
}

}  // namespace scod
