#pragma once

#include <array>
#include <vector>

#include "filters/filter_orbit.hpp"

namespace scod {

/// Half-open time interval [lo, hi] in seconds past epoch.
struct Interval {
  double lo = 0.0;
  double hi = 0.0;

  double length() const { return hi - lo; }
  bool contains(double t) const { return t >= lo && t <= hi; }
};

/// Sorts intervals and merges overlapping/adjacent ones.
std::vector<Interval> merge_intervals(std::vector<Interval> intervals);

/// Geometry of one relative node: the direction where the two (non-
/// coplanar) orbital planes intersect. Each orbit crosses the intersection
/// line at two opposite true anomalies; this struct holds the crossing for
/// one of the two directions (+k or -k of the plane-normal cross product).
struct NodeCrossing {
  double true_anomaly_a = 0.0;  ///< anomaly where orbit A points along the node
  double true_anomaly_b = 0.0;  ///< same for orbit B
  double radius_a = 0.0;        ///< geocentric radius of A at its crossing [km]
  double radius_b = 0.0;        ///< geocentric radius of B at its crossing [km]
  /// Both crossing points lie on the node line through the geocenter, so
  /// the orbit-to-orbit distance at this node is simply |radius_a-radius_b|.
  double miss_distance = 0.0;   ///< [km]
};

/// The two relative nodes of a non-coplanar orbit pair. Callers must
/// ensure the pair is not coplanar (are_coplanar() == false); for
/// degenerate geometry the crossing anomalies are meaningless.
std::array<NodeCrossing, 2> node_crossings(const FilterOrbit& a,
                                           const FilterOrbit& b);

/// Time filter (Woodburn & Dichmann 1998 / Hoots et al. 1984, simplified):
/// computes the windows inside [t_begin, t_end] during which BOTH objects
/// are near a relative node with sub-threshold node miss distance — the
/// only times a non-coplanar pair can produce a conjunction. "It excludes
/// all object pairs that are not in these windows simultaneously and can,
/// therefore, not generate a conjunction."
///
/// The threshold is padded by kFilterPadKm to absorb the first-order
/// approximations in the window construction. The returned intervals are
/// merged and sorted; an empty result means the time filter excludes the
/// pair for the whole span. Minima of the pairwise distance below
/// `threshold` are guaranteed (up to the stated first-order window
/// construction) to lie inside the returned intervals; the screener
/// verifies this against a dense-scan oracle in the tests.
std::vector<Interval> conjunction_time_windows(const FilterOrbit& a,
                                               const FilterOrbit& b,
                                               double t_begin, double t_end,
                                               double threshold_km);

/// The same windows from the pair's node_crossings(a, b), for a caller
/// that already has them (classify_pair tests their miss distances first).
std::vector<Interval> conjunction_time_windows(
    const FilterOrbit& a, const FilterOrbit& b,
    const std::array<NodeCrossing, 2>& crossings, double t_begin, double t_end,
    double threshold_km);

}  // namespace scod
