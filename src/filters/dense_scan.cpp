#include "filters/dense_scan.hpp"

#include <algorithm>
#include <cmath>

#include "obs/telemetry.hpp"
#include "pca/brent.hpp"

namespace scod {

namespace {

// Keeps the dense scan's minimizations in the same telemetry bucket as the
// interval refiners, so "refinements >= raw conjunctions" holds for every
// screener including the legacy coplanar path.
template <typename DistanceFn>
MinimizeResult counted_minimize(const DistanceFn& distance, double lo, double hi) {
  const MinimizeResult m =
      brent_minimize(distance, lo, hi, kRefineTimeTolerance, kRefineMaxIterations);
  obs::count(obs::Counter::kRefinements);
  obs::count(obs::Counter::kBrentIterations,
             static_cast<std::uint64_t>(m.iterations));
  return m;
}

}  // namespace

std::vector<Encounter> scan_encounters(const Propagator& propagator,
                                       std::uint32_t sat_a, std::uint32_t sat_b,
                                       double t_begin, double t_end,
                                       const DenseScanOptions& options) {
  std::vector<Encounter> encounters;
  if (!(t_begin < t_end)) return encounters;

  const auto distance = [&](double t) { return propagator.distance(sat_a, sat_b, t); };

  const auto samples =
      static_cast<std::size_t>(std::ceil((t_end - t_begin) / options.step)) + 1;
  const double step = (t_end - t_begin) / static_cast<double>(samples - 1);

  double d_prev2 = 0.0;
  double d_prev = distance(t_begin);
  double d_curr = samples > 1 ? distance(t_begin + step) : d_prev;

  // Leading edge: if the signal rises from the very first sample, the span
  // start is a running minimum.
  if (d_prev <= d_curr && d_prev < options.refine_below) {
    const MinimizeResult m =
        counted_minimize(distance, t_begin, t_begin + step);
    encounters.push_back({m.x, m.value});
  }

  for (std::size_t k = 2; k < samples; ++k) {
    d_prev2 = d_prev;
    d_prev = d_curr;
    const double t_curr = t_begin + static_cast<double>(k) * step;
    d_curr = distance(t_curr);
    if (d_prev <= d_prev2 && d_prev <= d_curr && d_prev < options.refine_below) {
      const MinimizeResult m =
          counted_minimize(distance, t_curr - 2.0 * step, t_curr);
      encounters.push_back({m.x, m.value});
    }
  }

  // Trailing edge: signal still falling at the end of the span.
  if (samples > 1 && d_curr < d_prev && d_curr < options.refine_below) {
    const MinimizeResult m =
        counted_minimize(distance, t_end - step, t_end);
    encounters.push_back({m.x, m.value});
  }

  return encounters;
}

}  // namespace scod
