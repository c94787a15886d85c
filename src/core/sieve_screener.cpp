#include "core/sieve_screener.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <vector>

#include "core/context.hpp"
#include "core/exec.hpp"
#include "filters/apogee_perigee.hpp"
#include "filters/filter_chain.hpp"
#include "obs/telemetry.hpp"
#include "orbit/geometry.hpp"
#include "pca/pair_evaluator.hpp"
#include "pca/refine.hpp"
#include "util/stopwatch.hpp"

namespace scod {

namespace {

/// The coarse sieve threshold is kCoarseFactor * screening threshold; below
/// it the pair is considered inside a proximity window and a Brent search
/// runs. Larger values find windows earlier (fewer, longer skips) at the
/// cost of more refinements.
constexpr double kCoarseFactor = 8.0;
/// Lower bound on a skip [s]; prevents pathological crawling when a pair
/// hovers just outside the coarse threshold.
constexpr double kMinSkip = 1.0;

/// Per-range work tallies of the sieve loop.
struct SieveTally {
  std::size_t distance_evals = 0;
  std::size_t refinements = 0;
};

/// Walks one pair through the span with adaptive skipping and refines
/// every proximity window it finds; returns the pair's merged encounters
/// below the threshold.
template <typename PairEvaluator>
std::vector<Encounter> sieve_pair(const PairEvaluator& eval, double closing_speed,
                                  const ScreeningConfig& config, SieveTally& tally) {
  const auto pair_distance = [&eval](double t) { return eval.distance(t); };
  const double coarse = kCoarseFactor * config.threshold_km;
  std::vector<Encounter> encounters;

  double t = config.t_begin;
  while (t <= config.t_end) {
    const double d = pair_distance(t);
    ++tally.distance_evals;
    if (d > coarse) {
      // Sieve step: the distance cannot shrink to the threshold before the
      // gap is closed at the maximum closing speed.
      t += std::max((d - config.threshold_km) / closing_speed, kMinSkip);
      continue;
    }
    // Proximity window: bracket the local minimum around t. The window
    // cannot be wider than the time to traverse the coarse sphere at the
    // lowest realistic speed. Clamp to the span so a minimum sitting
    // exactly on t_begin/t_end is reported instead of being discarded
    // toward a neighbouring interval that does not exist.
    const double half = std::max(2.0 * coarse / closing_speed, 2.0);
    const auto enc =
        refine_candidate_fn(pair_distance, t, half, config.t_begin, config.t_end);
    ++tally.refinements;
    if (enc.has_value() && enc->pca <= config.threshold_km) {
      encounters.push_back(*enc);
    }
    t += half + kMinSkip;  // move past this window
  }
  return merge_encounters(std::move(encounters), kMergeToleranceSeconds);
}

}  // namespace

ScreeningReport SieveScreener::run(const Propagator& propagator,
                                   const ScreeningConfig& config,
                                   ScreeningContext& context) const {
  ScreeningReport report;
  const std::size_t n = propagator.size();
  if (n < 2) return report;

  Stopwatch alloc_watch;
  std::vector<double>& vmax = context.arena().vmax(n);
  for (std::size_t i = 0; i < n; ++i) vmax[i] = max_speed(propagator.elements(i));
  report.timings.allocation += alloc_watch.seconds();

  // The upper-triangle pairs (i, j), i < j, in row-major order have flat
  // indices 0 .. n(n-1)/2 - 1, row i starting at row_start(i). The
  // parallel loop hands out ranges of that index; each range maps its
  // start to (i, j) once and then steps through the triangle.
  const std::size_t pair_count = n * (n - 1) / 2;
  const auto row_start = [n](std::size_t i) { return i * (2 * n - i - 1) / 2; };

  std::atomic<std::size_t> rejected_ap{0}, refinements{0}, distance_evals{0};

  Stopwatch sieve_watch;
  std::vector<Conjunction> all;
  std::mutex merge_mutex;

  // The sieve evaluates the pairwise distance in a tight skipping loop, so
  // the devirtualized evaluator pays off even more than in refinement: one
  // snapshot per pair covers the whole time scan.
  const RefineFastPath fast = RefineFastPath::probe(propagator);

  detail::pool_of(config).parallel_for_ranges(
      pair_count, [&](std::size_t begin, std::size_t end) {
        std::vector<Conjunction> local;
        SieveTally tally;
        std::size_t local_ap = 0;

        // Row of the range start: the last row starting at or before it.
        std::size_t i = 0, past = n - 1;
        while (past - i > 1) {
          const std::size_t mid = (i + past) / 2;
          if (row_start(mid) <= begin) {
            i = mid;
          } else {
            past = mid;
          }
        }
        std::size_t j = i + 1 + (begin - row_start(i));

        for (std::size_t p = begin; p < end; ++p, ++j) {
          if (j == n) j = ++i + 1;
          const auto a = static_cast<std::uint32_t>(i);
          const auto b = static_cast<std::uint32_t>(j);
          // The apogee/perigee filter stays worthwhile: it removes the
          // radially separated pairs in O(1) before any propagation.
          if (!apogee_perigee_overlap(propagator.elements(a), propagator.elements(b),
                                      config.threshold_km + kFilterPadKm)) {
            ++local_ap;
            continue;
          }
          const std::vector<Encounter> encounters =
              fast.visit(a, b, [&](const auto& eval) {
                return sieve_pair(eval, vmax[a] + vmax[b], config, tally);
              });
          for (const Encounter& e : encounters) {
            local.push_back({a, b, e.tca, e.pca});
            obs::count(obs::Counter::kConjunctionsRaw);
          }
        }

        distance_evals.fetch_add(tally.distance_evals, std::memory_order_relaxed);
        refinements.fetch_add(tally.refinements, std::memory_order_relaxed);
        rejected_ap.fetch_add(local_ap, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(merge_mutex);
        all.insert(all.end(), local.begin(), local.end());
      });

  report.conjunctions =
      merge_conjunctions(std::move(all), kMergeToleranceSeconds);
  report.timings.filtering = sieve_watch.seconds();

  // The sieve's filter funnel is two-stage: the apogee/perigee test, then
  // the skipping distance scan — survivors are every pair the scan had to
  // examine (in == ap_rejects + survivors).
  obs::count(obs::Counter::kFilterPairsIn, pair_count);
  obs::count(obs::Counter::kFilterApogeePerigeeRejects, rejected_ap.load());
  obs::count(obs::Counter::kFilterSurvivors, pair_count - rejected_ap.load());
  obs::count(obs::Counter::kSieveDistanceEvals, distance_evals.load());
  obs::count(obs::Counter::kConjunctionsReported, report.conjunctions.size());
  obs::add_seconds(obs::Counter::kTimeFilteringNs, report.timings.filtering);

  report.stats.satellites = n;
  report.stats.pairs_examined = pair_count;
  report.stats.filtered_apogee_perigee = rejected_ap.load();
  report.stats.refinements = refinements.load();
  // Repurpose the candidates counter for the sieve's distance evaluations
  // (its analogue of grid candidates: the work the skipping did not avoid).
  report.stats.candidates = distance_evals.load();
  return report;
}

}  // namespace scod
