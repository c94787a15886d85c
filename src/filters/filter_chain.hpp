#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "filters/filter_orbit.hpp"
#include "filters/time_windows.hpp"

namespace scod {

struct ScreeningConfig;
struct ScreeningStats;

/// Where a pair left the classical filter chain (Section III), or how it
/// survived it.
enum class PairVerdict : std::uint8_t {
  kApogeePerigeeReject,  ///< radial bands do not overlap
  kPathReject,           ///< node test: no approach near either node
  kWindowReject,         ///< no node time window inside the span
  kCoplanarSurvivor,     ///< coplanar; refined by a sampling search
  kWindowSurvivor,       ///< refined inside `windows`
};

struct PairClassification {
  PairVerdict verdict = PairVerdict::kApogeePerigeeReject;
  /// Node time windows, merged and sorted; set for kWindowSurvivor only.
  std::vector<Interval> windows;
};

/// The filter chain the hybrid and legacy variants share: apogee/perigee
/// overlap, then coplanarity. Coplanar pairs survive as they are (the
/// paper's hybrid refines them like grid pairs, Section IV-C); the others
/// take the node test (node_gaps: the orbits can only approach on an arc
/// around a relative node) and then the node time windows over
/// [config.t_begin, config.t_end]. Reads only the two objects'
/// FilterOrbits, which a screen builds once per object
/// (build_filter_orbits).
PairClassification classify_pair(const FilterOrbit& a, const FilterOrbit& b,
                                 const ScreeningConfig& config);

/// Tally of classify_pair verdicts: every pair lands in exactly one of
/// {ap-reject, path-reject, window-reject, survivor}, so those buckets
/// partition pairs_in.
struct FilterFunnel {
  std::size_t pairs_in = 0;
  std::size_t ap_rejects = 0;
  std::size_t path_rejects = 0;
  std::size_t window_rejects = 0;
  std::size_t coplanar_survivors = 0;
  std::size_t window_survivors = 0;

  void add(const PairClassification& pair);

  /// Adds another tally, e.g. one that counted a different share of the
  /// pairs.
  FilterFunnel& operator+=(const FilterFunnel& other);

  std::size_t survivors() const { return coplanar_survivors + window_survivors; }

  /// Adds the tally to the kFilter* telemetry counters and writes the
  /// filter fields of `stats`.
  void publish(ScreeningStats& stats) const;
};

}  // namespace scod
