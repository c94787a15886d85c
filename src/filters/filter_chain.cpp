#include "filters/filter_chain.hpp"

#include "core/config.hpp"
#include "core/report.hpp"
#include "filters/apogee_perigee.hpp"
#include "filters/coplanarity.hpp"
#include "filters/orbit_path.hpp"
#include "obs/telemetry.hpp"

namespace scod {

PairClassification classify_pair(const KeplerElements& a, const KeplerElements& b,
                                 const ScreeningConfig& config) {
  PairClassification out;
  const double reach = config.threshold_km + config.filter_pad_km;
  if (!apogee_perigee_overlap(a, b, reach)) {
    out.verdict = PairVerdict::kApogeePerigeeReject;
    return out;
  }

  out.coplanar = are_coplanar(a, b, config.coplanar_tolerance);
  if (out.coplanar) {
    out.verdict = orbit_path_overlap(a, b, config.threshold_km, config.filter_pad_km)
                      ? PairVerdict::kCoplanarSurvivor
                      : PairVerdict::kPathReject;
    return out;
  }

  const auto crossings = node_crossings(a, b);
  if (crossings[0].miss_distance > reach && crossings[1].miss_distance > reach) {
    out.verdict = PairVerdict::kPathReject;
    return out;
  }

  out.windows = conjunction_time_windows(a, b, config.t_begin, config.t_end,
                                         config.threshold_km, config.time_windows);
  out.verdict = out.windows.empty() ? PairVerdict::kWindowReject
                                    : PairVerdict::kWindowSurvivor;
  return out;
}

void FilterFunnel::add(const PairClassification& pair) {
  ++pairs_in;
  if (pair.coplanar) ++coplanar;
  switch (pair.verdict) {
    case PairVerdict::kApogeePerigeeReject: ++ap_rejects; break;
    case PairVerdict::kPathReject: ++path_rejects; break;
    case PairVerdict::kWindowReject: ++window_rejects; break;
    case PairVerdict::kCoplanarSurvivor: ++coplanar_survivors; break;
    case PairVerdict::kWindowSurvivor: ++window_survivors; break;
  }
}

void FilterFunnel::publish(ScreeningStats& stats) const {
  // Path checks run on every ap-pass pair; only non-coplanar node-pass
  // pairs reach the window filter.
  obs::count(obs::Counter::kFilterPairsIn, pairs_in);
  obs::count(obs::Counter::kFilterApogeePerigeeRejects, ap_rejects);
  obs::count(obs::Counter::kFilterPathChecks, pairs_in - ap_rejects);
  obs::count(obs::Counter::kFilterPathRejects, path_rejects);
  obs::count(obs::Counter::kFilterCoplanarPairs, coplanar);
  obs::count(obs::Counter::kFilterWindowChecks, window_rejects + window_survivors);
  obs::count(obs::Counter::kFilterWindowRejects, window_rejects);
  obs::count(obs::Counter::kFilterSurvivors, survivors());

  stats.pairs_examined = pairs_in;
  stats.filtered_apogee_perigee = ap_rejects;
  stats.filtered_path = path_rejects;
  stats.filtered_windows = window_rejects;
  stats.coplanar_pairs = coplanar;
}

}  // namespace scod
