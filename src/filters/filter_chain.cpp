#include "filters/filter_chain.hpp"

#include <array>

#include "core/config.hpp"
#include "core/report.hpp"
#include "filters/apogee_perigee.hpp"
#include "filters/coplanarity.hpp"
#include "obs/telemetry.hpp"

namespace scod {

PairClassification classify_pair(const FilterOrbit& a, const FilterOrbit& b,
                                 const ScreeningConfig& config) {
  PairClassification out;
  const double d = config.threshold_km;
  if (!apogee_perigee_overlap(a, b, d)) {
    out.verdict = PairVerdict::kApogeePerigeeReject;
    return out;
  }

  if (are_coplanar(a, b)) {
    out.verdict = PairVerdict::kCoplanarSurvivor;
    return out;
  }

  const std::array<NodeGap, 2> gaps = node_gaps(a, b, d);
  if (!gaps[0].open() && !gaps[1].open()) {
    out.verdict = PairVerdict::kPathReject;
    return out;
  }
  out.windows = conjunction_time_windows(a, b, gaps, config.t_begin, config.t_end);
  out.verdict = out.windows.empty() ? PairVerdict::kWindowReject
                                    : PairVerdict::kWindowSurvivor;
  return out;
}

void FilterFunnel::add(const PairClassification& pair) {
  ++pairs_in;
  switch (pair.verdict) {
    case PairVerdict::kApogeePerigeeReject: ++ap_rejects; break;
    case PairVerdict::kPathReject: ++path_rejects; break;
    case PairVerdict::kWindowReject: ++window_rejects; break;
    case PairVerdict::kCoplanarSurvivor: ++coplanar_survivors; break;
    case PairVerdict::kWindowSurvivor: ++window_survivors; break;
  }
}

FilterFunnel& FilterFunnel::operator+=(const FilterFunnel& other) {
  pairs_in += other.pairs_in;
  ap_rejects += other.ap_rejects;
  path_rejects += other.path_rejects;
  window_rejects += other.window_rejects;
  coplanar_survivors += other.coplanar_survivors;
  window_survivors += other.window_survivors;
  return *this;
}

void FilterFunnel::publish(ScreeningStats& stats) const {
  // The node test runs on every non-coplanar ap-pass pair; only the pairs
  // it leaves open reach the window filter.
  obs::count(obs::Counter::kFilterPairsIn, pairs_in);
  obs::count(obs::Counter::kFilterApogeePerigeeRejects, ap_rejects);
  obs::count(obs::Counter::kFilterPathChecks,
             pairs_in - ap_rejects - coplanar_survivors);
  obs::count(obs::Counter::kFilterPathRejects, path_rejects);
  obs::count(obs::Counter::kFilterCoplanarPairs, coplanar_survivors);
  obs::count(obs::Counter::kFilterWindowChecks, window_rejects + window_survivors);
  obs::count(obs::Counter::kFilterWindowRejects, window_rejects);
  obs::count(obs::Counter::kFilterSurvivors, survivors());

  stats.pairs_examined = pairs_in;
  stats.filtered_apogee_perigee = ap_rejects;
  stats.filtered_path = path_rejects;
  stats.filtered_windows = window_rejects;
  stats.coplanar_pairs = coplanar_survivors;
}

}  // namespace scod
