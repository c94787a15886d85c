#include "filters/filter_chain.hpp"

#include <array>
#include <cmath>

#include "core/config.hpp"
#include "core/report.hpp"
#include "filters/apogee_perigee.hpp"
#include "filters/coplanarity.hpp"
#include "filters/orbit_path.hpp"
#include "obs/telemetry.hpp"

namespace scod {

namespace {

/// True when both relative nodes of a non-coplanar pair certainly miss by
/// more than `reach`. It takes the node radii in closed form: along the
/// node direction u (in an orbit's perifocal frame) cos f = u_x / |u|,
/// and the opposite node has -cos f, so one square root per orbit stands
/// in for the atan2, wrap and cos per orbit and node of node_crossings.
/// The two forms differ by rounding only, far below a millimetre for any
/// bound orbit, so outside a 1 m band above `reach` this decides as the
/// exact test; a pair inside the band, or one that may pass, takes the
/// exact test.
bool nodes_certainly_miss(const FilterOrbit& a, const FilterOrbit& b, double reach) {
  constexpr double kBandKm = 1e-3;
  const Vec3 k = a.normal.cross(b.normal).normalized();
  const auto node_radii = [&k](const FilterOrbit& orbit) {
    const Vec3 u = orbit.rotation.transposed() * k;
    const double cos_f = u.x / std::sqrt(u.x * u.x + u.y * u.y);
    const double e = orbit.elements.eccentricity;
    return std::array<double, 2>{orbit.p / (1.0 + e * cos_f),
                                 orbit.p / (1.0 - e * cos_f)};
  };
  const std::array<double, 2> ra = node_radii(a);
  const std::array<double, 2> rb = node_radii(b);
  return std::abs(ra[0] - rb[0]) > reach + kBandKm &&
         std::abs(ra[1] - rb[1]) > reach + kBandKm;
}

}  // namespace

PairClassification classify_pair(const FilterOrbit& a, const FilterOrbit& b,
                                 const ScreeningConfig& config) {
  PairClassification out;
  const double reach = config.threshold_km + kFilterPadKm;
  if (!apogee_perigee_overlap(a, b, reach)) {
    out.verdict = PairVerdict::kApogeePerigeeReject;
    return out;
  }

  out.coplanar = are_coplanar(a, b);
  if (out.coplanar) {
    out.verdict = orbit_path_overlap(a, b, config.threshold_km)
                      ? PairVerdict::kCoplanarSurvivor
                      : PairVerdict::kPathReject;
    return out;
  }

  if (nodes_certainly_miss(a, b, reach)) {
    out.verdict = PairVerdict::kPathReject;
    return out;
  }
  const auto crossings = node_crossings(a, b);
  if (crossings[0].miss_distance > reach && crossings[1].miss_distance > reach) {
    out.verdict = PairVerdict::kPathReject;
    return out;
  }

  out.windows = conjunction_time_windows(a, b, crossings, config.t_begin, config.t_end,
                                         config.threshold_km);
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

FilterFunnel& FilterFunnel::operator+=(const FilterFunnel& other) {
  pairs_in += other.pairs_in;
  ap_rejects += other.ap_rejects;
  path_rejects += other.path_rejects;
  window_rejects += other.window_rejects;
  coplanar += other.coplanar;
  coplanar_survivors += other.coplanar_survivors;
  window_survivors += other.window_survivors;
  return *this;
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
