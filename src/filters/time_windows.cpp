#include "filters/time_windows.hpp"

#include <algorithm>
#include <cmath>

#include "orbit/anomaly.hpp"
#include "orbit/geometry.hpp"
#include "util/constants.hpp"

namespace scod {

std::vector<Interval> merge_intervals(std::vector<Interval> intervals) {
  if (intervals.empty()) return intervals;
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& x, const Interval& y) { return x.lo < y.lo; });
  std::vector<Interval> merged;
  merged.push_back(intervals.front());
  for (std::size_t i = 1; i < intervals.size(); ++i) {
    if (intervals[i].lo <= merged.back().hi) {
      merged.back().hi = std::max(merged.back().hi, intervals[i].hi);
    } else {
      merged.push_back(intervals[i]);
    }
  }
  return merged;
}

namespace {

/// Appends the windows [t_cross - half_time, t_cross + half_time] for every
/// time the orbit crosses `node` within [t_begin - half_time, t_end +
/// half_time].
void append_crossing_windows(const KeplerElements& el, const NodeArc& node,
                             double t_begin, double t_end, std::vector<Interval>& out) {
  const double n = mean_motion(el);
  const double period = kTwoPi / n;
  const double half = node.half_time;
  const double m_node = true_to_mean(std::atan2(node.sin_f, node.cos_f), el.eccentricity);
  // Crossings happen at t0 + j * period; start with the first window that
  // can still reach into [t_begin, t_end].
  const double t0 = wrap_two_pi(m_node - el.mean_anomaly) / n;
  const double j_start = std::ceil((t_begin - half - t0) / period);
  for (double t = t0 + j_start * period; t - half <= t_end; t += period) {
    out.push_back({t - half, t + half});
  }
}

/// Two-pointer intersection of two merged interval lists.
void intersect_into(const std::vector<Interval>& xs, const std::vector<Interval>& ys,
                    std::vector<Interval>& out) {
  std::size_t i = 0, j = 0;
  while (i < xs.size() && j < ys.size()) {
    const double lo = std::max(xs[i].lo, ys[j].lo);
    const double hi = std::min(xs[i].hi, ys[j].hi);
    if (lo <= hi) out.push_back({lo, hi});
    if (xs[i].hi < ys[j].hi) {
      ++i;
    } else {
      ++j;
    }
  }
}

}  // namespace

std::array<NodeGap, 2> node_gaps(const FilterOrbit& a, const FilterOrbit& b,
                                 double reach) {
  const Vec3 cross = a.normal.cross(b.normal);
  const double sin_angle = cross.norm();
  const Vec3 k = cross / sin_angle;
  // Half-width of the arc around a node that can hold an approach within
  // the reach; r_lo is the smallest radius of a point pair that close.
  const double r_lo = std::max(a.perigee, b.perigee) - reach;
  const double w =
      r_lo > 0.0 ? std::min(kPi, std::asin(std::min(1.0, reach / (r_lo * sin_angle))) +
                                     2.0 * std::asin(std::min(1.0, 0.5 * reach / r_lo)))
                 : kPi;
  const double sin_w = w < 0.5 * kPi ? std::sin(w) : 1.0;
  const double cos_w = std::cos(w);

  // Along k, in an orbit's perifocal frame u, cos f = u_x / |u| and
  // sin f = u_y / |u|; the opposite node has -cos f and -sin f. Over
  // |f - f_node| <= w, |sin f| <= |sin f_node| + |cos f_node| sin w and
  // cos f >= min(cos f_node cos w, cos f_node) - |sin f_node| sin w.
  std::array<NodeGap, 2> gaps;
  const auto add = [&](const FilterOrbit& orbit, NodeArc NodeGap::*arc) {
    const Vec3 u = orbit.rotation.transposed() * k;
    const double inv = 1.0 / std::sqrt(u.x * u.x + u.y * u.y);
    const double e = orbit.elements.eccentricity;
    for (int s = 0; s < 2; ++s) {
      NodeArc& node = gaps[s].*arc;
      node.cos_f = (s == 0 ? u.x : -u.x) * inv;
      node.sin_f = (s == 0 ? u.y : -u.y) * inv;
      const double sin_max =
          std::min(1.0, std::abs(node.sin_f) + std::abs(node.cos_f) * sin_w);
      const double cos_min = std::max(
          -1.0, std::min(node.cos_f * cos_w, node.cos_f) - std::abs(node.sin_f) * sin_w);
      const double q = 1.0 + e * cos_min;
      const double slope = orbit.p * e * sin_max / (q * q);  // max|dr/df| on the arc
      node.radius = orbit.p / (1.0 + e * node.cos_f);
      const double r_max = node.radius + w * slope;
      node.half_time = w * r_max * r_max / orbit.h;
      gaps[s].bound += w * slope;
    }
  };
  add(a, &NodeGap::a);
  add(b, &NodeGap::b);
  for (NodeGap& gap : gaps) gap.bound += reach;
  return gaps;
}

std::vector<Interval> conjunction_time_windows(const FilterOrbit& a,
                                               const FilterOrbit& b,
                                               const std::array<NodeGap, 2>& gaps,
                                               double t_begin, double t_end) {
  std::vector<Interval> result;
  for (const NodeGap& gap : gaps) {
    if (!gap.open()) continue;
    std::vector<Interval> windows_a, windows_b;
    append_crossing_windows(a.elements, gap.a, t_begin, t_end, windows_a);
    append_crossing_windows(b.elements, gap.b, t_begin, t_end, windows_b);
    intersect_into(merge_intervals(std::move(windows_a)),
                   merge_intervals(std::move(windows_b)), result);
  }

  // Clamp to the simulation span and merge the two node directions.
  for (Interval& iv : result) {
    iv.lo = std::max(iv.lo, t_begin);
    iv.hi = std::min(iv.hi, t_end);
  }
  std::erase_if(result, [](const Interval& iv) { return !(iv.lo < iv.hi); });
  return merge_intervals(std::move(result));
}

}  // namespace scod
