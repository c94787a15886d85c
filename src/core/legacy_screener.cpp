#include "core/legacy_screener.hpp"

#include <optional>
#include <vector>

#include "filters/dense_scan.hpp"
#include "filters/filter_chain.hpp"
#include "obs/telemetry.hpp"
#include "pca/refine.hpp"
#include "util/constants.hpp"
#include "util/stopwatch.hpp"

namespace scod {

namespace {
/// Sampling step of the dense encounter scan used for coplanar pairs,
/// where the node-window construction degenerates [s].
constexpr double kDenseScanStep = 16.0;
}  // namespace

ScreeningReport LegacyScreener::run(const Propagator& propagator,
                                    const ScreeningConfig& config,
                                    ScreeningContext& /*context*/) const {
  ScreeningReport report;
  const std::size_t n = propagator.size();
  const double reach = config.threshold_km + kFilterPadKm;

  std::vector<Conjunction> raw;
  double filter_seconds = 0.0;
  double refine_seconds = 0.0;

  DenseScanOptions scan_options;
  scan_options.step = kDenseScanStep;
  scan_options.refine_below = 8.0 * reach + 2.0 * kLeoSpeed * scan_options.step;

  FilterFunnel funnel;
  std::size_t refinements = 0;

  Stopwatch section;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const KeplerElements& ea = propagator.elements(i);
    for (std::size_t j = i + 1; j < n; ++j) {
      const PairClassification pair = classify_pair(ea, propagator.elements(j), config);
      funnel.add(pair);
      if (pair.verdict != PairVerdict::kCoplanarSurvivor &&
          pair.verdict != PairVerdict::kWindowSurvivor) {
        continue;
      }

      const auto sat_a = static_cast<std::uint32_t>(i);
      const auto sat_b = static_cast<std::uint32_t>(j);
      filter_seconds += section.seconds();
      section.restart();
      if (pair.verdict == PairVerdict::kCoplanarSurvivor) {
        // Coplanar survivor: exhaustive sampled encounter search.
        for (const Encounter& e :
             scan_encounters(propagator, sat_a, sat_b, config.t_begin, config.t_end,
                             scan_options)) {
          ++refinements;
          if (e.pca <= config.threshold_km) raw.push_back({sat_a, sat_b, e.tca, e.pca});
        }
      } else {
        for (const Interval& window : pair.windows) {
          const double ext = 0.25 * window.length() + 5.0;
          const auto encounter = refine_on_interval(propagator, sat_a, sat_b,
                                                    window.lo - ext, window.hi + ext);
          ++refinements;
          if (encounter.has_value() && encounter->pca <= config.threshold_km &&
              encounter->tca >= config.t_begin && encounter->tca <= config.t_end) {
            raw.push_back({sat_a, sat_b, encounter->tca, encounter->pca});
          }
        }
      }
      refine_seconds += section.seconds();
      section.restart();
    }
  }
  filter_seconds += section.seconds();

  funnel.publish(report.stats);
  obs::count(obs::Counter::kConjunctionsRaw, raw.size());
  obs::add_seconds(obs::Counter::kTimeFilteringNs, filter_seconds);
  obs::add_seconds(obs::Counter::kTimeRefinementNs, refine_seconds);

  report.conjunctions =
      merge_conjunctions(std::move(raw), kMergeToleranceSeconds);
  obs::count(obs::Counter::kConjunctionsReported, report.conjunctions.size());
  report.timings.filtering = filter_seconds;
  report.timings.refinement = refine_seconds;
  report.stats.satellites = n;
  report.stats.refinements = refinements;
  return report;
}

}  // namespace scod
