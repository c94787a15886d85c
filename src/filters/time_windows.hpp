#pragma once

#include <array>
#include <cmath>
#include <vector>

#include "filters/filter_orbit.hpp"

namespace scod {

/// Closed time interval [lo, hi] in seconds past epoch.
struct Interval {
  double lo = 0.0;
  double hi = 0.0;

  double length() const { return hi - lo; }
  bool contains(double t) const { return t >= lo && t <= hi; }
};

/// Sorts intervals and merges overlapping/adjacent ones.
std::vector<Interval> merge_intervals(std::vector<Interval> intervals);

/// One orbit at one relative node: where it crosses the node line and how
/// long it can stay on the arc around it that node_gaps bounds.
struct NodeArc {
  double cos_f = 0.0;      ///< cos of the true anomaly along the node line
  double sin_f = 0.0;      ///< sin of that true anomaly
  double radius = 0.0;     ///< radius on the node line [km]
  double half_time = 0.0;  ///< bound on the time to cross the arc's half-width [s]
};

/// One relative node as the node test sees it: both orbits' arcs and the
/// largest radial gap on the node line at which the orbits can still come
/// within the reach near the node.
struct NodeGap {
  NodeArc a;           ///< orbit A
  NodeArc b;           ///< orbit B
  double bound = 0.0;  ///< reach + w (max|r_a'| + max|r_b'|) [km]

  /// False when no point pair near this node comes within the reach.
  bool open() const { return std::abs(a.radius - b.radius) <= bound; }
};

/// The node test of a non-coplanar pair: entry 0 is the node along
/// normal_a x normal_b, entry 1 the opposite one. Callers must ensure the
/// pair is not coplanar (are_coplanar() == false). Two points within
/// `reach` of each other lie within w = asin(min(1, reach / (r sin theta))) +
/// 2 asin(reach / 2r) of the same node in their planes (r: the smallest
/// radius such a pair can have), and over that arc a radius moves from its
/// node value by at most w max|dr/df|, with max|dr/df| = max p e |sin f| /
/// (1 + e cos f)^2 bounded from the node's cos f and sin f, never sampled.
/// So a node is open while its radial gap is at most `bound`. Since
/// df/dt = h / r^2 and no radius on the arc exceeds r_node + w max|dr/df|,
/// an orbit crosses the half-width w within
/// half_time = w (r_node + w max|dr/df|)^2 / h.
std::array<NodeGap, 2> node_gaps(const FilterOrbit& a, const FilterOrbit& b,
                                 double reach);

/// Time filter (Woodburn & Dichmann 1998 / Hoots et al. 1984): the windows
/// inside [t_begin, t_end] during which BOTH objects are on the arc of a
/// node that `gaps` (node_gaps(a, b, d)) leaves open — the only times a
/// non-coplanar pair can come within d. "It excludes all object pairs that
/// are not in these windows simultaneously and can, therefore, not
/// generate a conjunction." Each orbit's window around a node crossing at
/// t_cross is [t_cross - half_time, t_cross + half_time], so every approach
/// within d lies inside a returned interval. The intervals are merged and
/// sorted; an empty result means the pair cannot meet within the span.
std::vector<Interval> conjunction_time_windows(const FilterOrbit& a,
                                               const FilterOrbit& b,
                                               const std::array<NodeGap, 2>& gaps,
                                               double t_begin, double t_end);

}  // namespace scod
