#include "core/hybrid_screener.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>

#include "core/exec.hpp"
#include "core/grid_pipeline.hpp"
#include "filters/filter_chain.hpp"
#include "obs/telemetry.hpp"
#include "parallel/radix_sort.hpp"
#include "pca/pair_evaluator.hpp"
#include "pca/refine.hpp"
#include "util/stopwatch.hpp"

namespace scod {

namespace {

/// One Brent task produced by the filter stage: a window task refines the
/// filter window [t_lo, t_hi]; a grid-style task (coplanar pairs) centres
/// a cell-crossing radius on the sample time t_lo and has a NaN t_hi.
struct RefineTask {
  std::uint32_t sat_a = 0;
  std::uint32_t sat_b = 0;
  double t_lo = 0.0;
  double t_hi = 0.0;

  bool grid_style() const { return std::isnan(t_hi); }
};

/// True when two sorted candidate keys belong to the same pair.
bool same_pair(std::uint64_t x, std::uint64_t y) {
  return x >> kCandidateStepBits == y >> kCandidateStepBits;
}

/// Sorted candidate keys per chunk of step 3.
constexpr std::size_t kFilterChunkKeys = std::size_t{1} << 14;

/// What one chunk of step 3 produced: the verdict tally and the
/// refinement tasks of its pairs, in key order.
struct FilterChunk {
  FilterFunnel funnel;
  std::vector<RefineTask> tasks;
};

/// Appends the refinement tasks of the pair whose candidate keys are
/// `keys` (one run of the sorted keys). Coplanar survivors get one grid-style task per candidate
/// step; window survivors one task per window reachable from a candidate
/// sample.
void append_tasks(const PairClassification& v, std::span<const std::uint64_t> keys,
                  const GridPipelineResult& pipeline, const ScreeningConfig& config,
                  std::vector<RefineTask>& tasks) {
  const Candidate first = unpack_candidate(keys.front());
  const auto sample_time = [&](std::uint64_t key) {
    return pipeline.sample_time(unpack_candidate(key).step, config.t_begin, config.t_end);
  };

  if (v.verdict == PairVerdict::kCoplanarSurvivor) {
    for (const std::uint64_t key : keys) {
      const double t_s = sample_time(key);
      tasks.push_back({first.sat_a, first.sat_b, t_s, std::nan("")});
    }
    return;
  }
  if (v.verdict != PairVerdict::kWindowSurvivor) return;

  // A candidate at sample t_s flags a minimum within +- the cell-crossing
  // radius; mark every window overlapping that reach.
  std::vector<std::uint8_t> used(v.windows.size(), 0);
  for (const std::uint64_t key : keys) {
    const double t_s = sample_time(key);
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
    if (used[w]) {
      tasks.push_back({first.sat_a, first.sat_b, v.windows[w].lo, v.windows[w].hi});
    }
  }
}

/// Step 3 for chunk `c` of the sorted keys: classifies every pair whose
/// run of keys starts inside the chunk (its last run may extend past it)
/// and turns each into refinement tasks.
FilterChunk filter_chunk(std::span<const std::uint64_t> keys, std::size_t c,
                         const std::vector<FilterOrbit>& orbits,
                         const GridPipelineResult& pipeline,
                         const ScreeningConfig& config) {
  FilterChunk out;
  const std::size_t end = std::min(keys.size(), (c + 1) * kFilterChunkKeys);
  std::size_t begin = c * kFilterChunkKeys;
  // Skip the tail of a run the previous chunk owns.
  while (begin > 0 && begin < end && same_pair(keys[begin - 1], keys[begin])) ++begin;
  while (begin < end) {
    std::size_t run_end = begin + 1;
    while (run_end < keys.size() && same_pair(keys[begin], keys[run_end])) ++run_end;
    const Candidate pair = unpack_candidate(keys[begin]);
    const PairClassification v =
        classify_pair(orbits[pair.sat_a], orbits[pair.sat_b], config);
    out.funnel.add(v);
    append_tasks(v, keys.subspan(begin, run_end - begin), pipeline, config, out.tasks);
    begin = run_end;
  }
  return out;
}

}  // namespace

ScreeningReport HybridScreener::run(const Propagator& propagator,
                                    const ScreeningConfig& config) const {
  require_fixed_elements(propagator);
  // The filters classify each pair once over the whole span, so every
  // round's candidate keys are collected first, and the plan reserves
  // Eq. 4's a_ch for them.
  std::vector<std::uint64_t> keys;
  const GridRoundSink collect = [&](std::size_t, std::span<const std::uint64_t> round,
                                    const GridPipelineResult&) {
    keys.insert(keys.end(), round.begin(), round.end());
  };
  GridPipelineOptions options;
  options.sink_keeps_keys = true;
  const GridPipelineResult pipeline = run_grid_pipeline(
      propagator, with_sample_period(config, kDefaultSecondsPerSample),
      ConjunctionCountModel::paper_hybrid(), options, collect);

  ScreeningReport report;
  fill_pipeline_stats(report, propagator.size(), pipeline);
  // The span's keys were held beside the pipeline's round storage while
  // collecting, then beside the sort's scratch copy.
  report.stats.candidate_memory_bytes =
      keys.capacity() * sizeof(std::uint64_t) +
      std::max<std::uint64_t>(pipeline.candidate_memory_bytes,
                              keys.size() * sizeof(std::uint64_t));

  // ---- Step 3: orbital filters on the distinct pairs --------------------
  Stopwatch filter_watch;
  ThreadPool& pool = detail::pool_of(config);

  // Keys pack (sat_a, sat_b, step) from high bits to low and are unique,
  // so ascending keys are the candidates in (pair, step) order, and each
  // distinct pair is one run of keys sharing their bits above the step.
  parallel_radix_sort(keys, pool);
  const std::vector<FilterOrbit> orbits = build_filter_orbits(propagator, pool);

  // The chunks are joined in key order, so the tasks are in the order one
  // serial pass over the pairs would emit them.
  std::vector<FilterChunk> chunks((keys.size() + kFilterChunkKeys - 1) /
                                  kFilterChunkKeys);
  pool.parallel_for(
      chunks.size(),
      [&](std::size_t c) { chunks[c] = filter_chunk(keys, c, orbits, pipeline, config); },
      /*grain=*/1);

  FilterFunnel funnel;
  std::vector<RefineTask> tasks;
  for (const FilterChunk& chunk : chunks) {
    funnel += chunk.funnel;
    tasks.insert(tasks.end(), chunk.tasks.begin(), chunk.tasks.end());
  }
  report.timings.filtering = filter_watch.seconds();

  // ---- Step 4: Brent refinement -----------------------------------------
  Stopwatch refine_watch;
  const RefineFastPath fast = RefineFastPath::probe(propagator);
  std::vector<Conjunction> raw;
  detail::RefineSlots slots;
  slots.run(
      config, tasks.size(),
      [&](std::size_t i, Conjunction& slot) {
        const RefineTask& task = tasks[i];
        const std::optional<Encounter> found =
            fast.visit(task.sat_a, task.sat_b, [&](const auto& eval) {
              return task.grid_style()
                         ? refine_grid_candidate(eval, task.t_lo, pipeline.cell_size,
                                                 config.threshold_km, config.t_begin,
                                                 config.t_end)
                         : refine_window(eval, task.t_lo, task.t_hi, config.threshold_km,
                                         config.t_begin, config.t_end);
            });
        if (!found.has_value()) return false;
        slot = {task.sat_a, task.sat_b, found->tca, found->pca};
        return true;
      },
      raw);
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
