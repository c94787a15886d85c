#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "filters/time_windows.hpp"
#include "orbit/elements.hpp"

namespace scod {

struct ScreeningConfig;
struct ScreeningStats;

/// Distance pad added to the screening threshold by every orbital filter
/// (apogee/perigee, orbit path, node miss, node time windows) and by the
/// sieve's apogee/perigee test [km]. It absorbs the first-order
/// approximations of the filters.
inline constexpr double kFilterPadKm = 0.5;

/// Where a pair left the classical filter chain (Section III), or how it
/// survived it.
enum class PairVerdict : std::uint8_t {
  kApogeePerigeeReject,  ///< radial bands do not overlap
  kPathReject,           ///< orbit-path (coplanar) or node-miss rejection
  kWindowReject,         ///< no node time window inside the span
  kCoplanarSurvivor,     ///< coplanar; refined by a sampling search
  kWindowSurvivor,       ///< refined inside `windows`
};

struct PairClassification {
  PairVerdict verdict = PairVerdict::kApogeePerigeeReject;
  /// Passed the apogee/perigee filter and took the coplanar branch.
  bool coplanar = false;
  /// Node time windows, merged and sorted; set for kWindowSurvivor only.
  std::vector<Interval> windows;
};

/// The filter chain the hybrid and legacy variants share: apogee/perigee
/// overlap, then coplanarity; coplanar pairs take the orbit-path filter,
/// the others the node-miss check (the analytic orbit-path filter — the
/// orbits can only approach near the relative nodes) and then the node
/// time windows over [config.t_begin, config.t_end].
PairClassification classify_pair(const KeplerElements& a, const KeplerElements& b,
                                 const ScreeningConfig& config);

/// Tally of classify_pair verdicts: every pair lands in exactly one of
/// {ap-reject, path-reject, window-reject, survivor}, so those buckets
/// partition pairs_in.
struct FilterFunnel {
  std::size_t pairs_in = 0;
  std::size_t ap_rejects = 0;
  std::size_t path_rejects = 0;
  std::size_t window_rejects = 0;
  std::size_t coplanar = 0;
  std::size_t coplanar_survivors = 0;
  std::size_t window_survivors = 0;

  void add(const PairClassification& pair);

  std::size_t survivors() const { return coplanar_survivors + window_survivors; }

  /// Adds the tally to the kFilter* telemetry counters and writes the
  /// filter fields of `stats`.
  void publish(ScreeningStats& stats) const;
};

}  // namespace scod
