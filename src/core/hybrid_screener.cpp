#include "core/hybrid_screener.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>

#include "core/context.hpp"
#include "core/exec.hpp"
#include "filters/filter_chain.hpp"
#include "obs/telemetry.hpp"
#include "pca/pair_evaluator.hpp"
#include "pca/refine.hpp"
#include "util/stopwatch.hpp"

namespace scod {

namespace {

/// One Brent task produced by the filter stage.
struct RefineTask {
  std::uint32_t sat_a = 0;
  std::uint32_t sat_b = 0;
  double t_lo = 0.0;
  double t_hi = 0.0;
  /// Grid-style tasks center on a sample time with a cell-crossing radius
  /// (coplanar pairs); window tasks refine a filter-built interval.
  bool grid_style = false;
  double center = 0.0;
};

}  // namespace

HybridScreener::HybridScreener(GridPipelineOptions options,
                               ScreeningContext* context)
    : ScreenerBase(context), options_(std::move(options)) {}

ScreeningReport HybridScreener::run(const Propagator& propagator,
                                    const ScreeningConfig& config,
                                    ScreeningContext& context) const {
  GridPipelineResult pipeline = run_grid_pipeline(
      propagator, with_sample_period(config, kDefaultSecondsPerSample),
      ConjunctionCountModel::paper_hybrid(), options_, context);

  ScreeningReport report;
  fill_pipeline_stats(report, propagator.size(), pipeline);

  // ---- Step 3: orbital filters on the distinct pairs --------------------
  Stopwatch filter_watch;

  std::vector<Candidate> candidates = std::move(pipeline.candidates);
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& x, const Candidate& y) {
              if (x.sat_a != y.sat_a) return x.sat_a < y.sat_a;
              if (x.sat_b != y.sat_b) return x.sat_b < y.sat_b;
              return x.step < y.step;
            });

  // Index ranges of the distinct pairs in the sorted candidate list.
  std::vector<std::pair<std::size_t, std::size_t>> pair_ranges;
  for (std::size_t i = 0; i < candidates.size();) {
    std::size_t j = i + 1;
    while (j < candidates.size() && candidates[j].sat_a == candidates[i].sat_a &&
           candidates[j].sat_b == candidates[i].sat_b) {
      ++j;
    }
    pair_ranges.emplace_back(i, j);
    i = j;
  }

  std::vector<PairClassification> verdicts(pair_ranges.size());
  detail::pool_of(config).parallel_for(pair_ranges.size(), [&](std::size_t pi) {
    const Candidate& c = candidates[pair_ranges[pi].first];
    verdicts[pi] = classify_pair(propagator.elements(c.sat_a),
                                 propagator.elements(c.sat_b), config);
  });

  // Tally the verdicts and turn surviving pairs into refinement tasks.
  // Window tasks are emitted once per (pair, window) that is reachable from
  // a candidate sample; coplanar pairs get one grid-style task per
  // candidate step.
  FilterFunnel funnel;
  std::vector<RefineTask> tasks;
  for (std::size_t pi = 0; pi < pair_ranges.size(); ++pi) {
    const PairClassification& v = verdicts[pi];
    funnel.add(v);
    const auto [begin, end] = pair_ranges[pi];
    const std::uint32_t sat_a = candidates[begin].sat_a;
    const std::uint32_t sat_b = candidates[begin].sat_b;

    if (v.verdict == PairVerdict::kCoplanarSurvivor) {
      for (std::size_t k = begin; k < end; ++k) {
        const double t_s =
            pipeline.sample_time(candidates[k].step, config.t_begin, config.t_end);
        tasks.push_back({sat_a, sat_b, 0.0, 0.0, /*grid_style=*/true, t_s});
      }
      continue;
    }
    if (v.verdict != PairVerdict::kWindowSurvivor) continue;

    // A candidate at sample t_s flags a minimum within +- the cell-crossing
    // radius; mark every window overlapping that reach.
    std::vector<std::uint8_t> used(v.windows.size(), 0);
    for (std::size_t k = begin; k < end; ++k) {
      const double t_s =
          pipeline.sample_time(candidates[k].step, config.t_begin, config.t_end);
      // Cell-crossing reach at a very conservative 1 km/s lower speed
      // bound; matching only gates which windows get refined, so erring
      // wide costs a few extra Brent calls, never a missed encounter.
      constexpr double kMinCrossSpeed = 1.0;  // km/s
      const double reach_time = 2.0 * pipeline.cell_size / kMinCrossSpeed;
      for (std::size_t w = 0; w < v.windows.size(); ++w) {
        if (v.windows[w].lo <= t_s + reach_time && v.windows[w].hi >= t_s - reach_time) {
          used[w] = 1;
        }
      }
    }
    for (std::size_t w = 0; w < v.windows.size(); ++w) {
      if (!used[w]) continue;
      // Extend the filter window slightly so a minimum grazing its edge is
      // found inside the search interval rather than discarded.
      const double ext = 0.25 * v.windows[w].length() + 5.0;
      tasks.push_back({sat_a, sat_b, v.windows[w].lo - ext, v.windows[w].hi + ext,
                       /*grid_style=*/false, 0.0});
    }
  }
  report.timings.filtering = filter_watch.seconds();

  // ---- Step 4: Brent refinement -----------------------------------------
  Stopwatch refine_watch;
  std::vector<Conjunction>& slots = context.arena().conjunction_slots(tasks.size());
  std::vector<std::uint8_t>& valid = context.arena().valid_flags(tasks.size());

  const RefineFastPath fast = RefineFastPath::probe(propagator);
  detail::execute(config, tasks.size(), [&](std::size_t i) {
    const RefineTask& task = tasks[i];
    const std::optional<Encounter> encounter =
        fast.visit(task.sat_a, task.sat_b, [&](const auto& eval) {
          return task.grid_style
                     ? refine_grid_candidate(eval, task.center, pipeline.cell_size,
                                             config.t_begin, config.t_end)
                     : refine_on_interval_fn(
                           [&eval](double t) { return eval.distance(t); },
                           task.t_lo, task.t_hi);
        });
    if (encounter.has_value() && encounter->pca <= config.threshold_km &&
        encounter->tca >= config.t_begin && encounter->tca <= config.t_end) {
      slots[i] = {task.sat_a, task.sat_b, encounter->tca, encounter->pca};
      valid[i] = 1;
    }
  });

  std::vector<Conjunction> raw;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (valid[i]) raw.push_back(slots[i]);
  }
  obs::count(obs::Counter::kConjunctionsRaw, raw.size());
  report.conjunctions =
      merge_conjunctions(std::move(raw), kMergeToleranceSeconds);
  report.timings.refinement = refine_watch.seconds();

  funnel.publish(report.stats);
  obs::add_seconds(obs::Counter::kTimeFilteringNs, report.timings.filtering);
  obs::add_seconds(obs::Counter::kTimeRefinementNs, report.timings.refinement);
  obs::count(obs::Counter::kConjunctionsReported, report.conjunctions.size());
  report.stats.refinements = tasks.size();
  return report;
}

}  // namespace scod
