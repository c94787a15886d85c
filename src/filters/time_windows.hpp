#pragma once

#include <array>
#include <cmath>
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

/// One relative node as the node test sees it: both orbits' radii on the
/// node line, in closed form, and the largest radial gap there at which
/// the orbits can still come within the reach near the node.
struct NodeGap {
  double radius_a = 0.0;  ///< radius of orbit A on the node line [km]
  double radius_b = 0.0;  ///< radius of orbit B on the node line [km]
  double bound = 0.0;     ///< reach + pad [km]

  /// False when no point pair near this node comes within the reach.
  bool open() const { return std::abs(radius_a - radius_b) <= bound; }
};

/// The node test of a non-coplanar pair, one entry per node in
/// node_crossings' order. Two points within `reach` of each other lie
/// within w = asin(min(1, reach / (r sin theta))) + 2 asin(reach / 2r) of
/// the same node in their planes (r: the smallest radius such a pair can
/// have), and over that arc a radius moves from its node value by at most
/// w max|dr/df|, with max|dr/df| = max p e |sin f| / (1 + e cos f)^2
/// bounded from the node's cos f and sin f, never sampled. So the pad is
/// w (max|r_a'| + max|r_b'|).
std::array<NodeGap, 2> node_gaps(const FilterOrbit& a, const FilterOrbit& b,
                                 double reach);

/// Time filter (Woodburn & Dichmann 1998 / Hoots et al. 1984, simplified):
/// computes the windows inside [t_begin, t_end] during which BOTH objects
/// are near a relative node that `gaps` (node_gaps(a, b, threshold_km +
/// kFilterPadKm)) leaves open — the only times a non-coplanar pair can
/// produce a conjunction. "It excludes all object pairs that are not in
/// these windows simultaneously and can, therefore, not generate a
/// conjunction."
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
                                               const std::array<NodeGap, 2>& gaps,
                                               double t_begin, double t_end,
                                               double threshold_km);

}  // namespace scod
