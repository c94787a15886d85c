#include "filters/time_windows.hpp"

#include <algorithm>
#include <cmath>

#include "filters/filter_chain.hpp"
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

/// True anomaly at which the orbit's position vector points along the
/// (unit) direction `k`, which must lie in the orbital plane.
double anomaly_toward(const FilterOrbit& orbit, const Vec3& k) {
  // The node direction in the perifocal frame.
  const Vec3 u = orbit.rotation.transposed() * k;
  return wrap_two_pi(std::atan2(u.y, u.x));
}

NodeCrossing crossing_at(const FilterOrbit& a, const FilterOrbit& b, const Vec3& k) {
  NodeCrossing c;
  c.true_anomaly_a = anomaly_toward(a, k);
  c.true_anomaly_b = anomaly_toward(b, k);
  c.radius_a = a.radius_at(c.true_anomaly_a);
  c.radius_b = b.radius_at(c.true_anomaly_b);
  c.miss_distance = std::abs(c.radius_a - c.radius_b);
  return c;
}

/// Appends the windows [t_cross - w, t_cross + w] for every time the
/// object passes true anomaly `f_node` within [t_begin - w, t_end + w].
void append_crossing_windows(const KeplerElements& el, double f_node, double w,
                             double t_begin, double t_end,
                             std::vector<Interval>& out) {
  const double n = mean_motion(el);
  const double period = kTwoPi / n;
  const double m_node = true_to_mean(f_node, el.eccentricity);
  // Crossings happen at t0 + j * period; start with the first window that
  // can still reach into [t_begin, t_end].
  const double t0 = wrap_two_pi(m_node - el.mean_anomaly) / n;
  const double j_start = std::ceil((t_begin - w - t0) / period);
  for (double t = t0 + j_start * period; t - w <= t_end; t += period) {
    out.push_back({t - w, t + w});
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

std::array<NodeCrossing, 2> node_crossings(const FilterOrbit& a,
                                           const FilterOrbit& b) {
  const Vec3 k = a.normal.cross(b.normal).normalized();
  return {crossing_at(a, b, k), crossing_at(a, b, -k)};
}

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
  const auto add = [&](const FilterOrbit& orbit, double NodeGap::*radius) {
    const Vec3 u = orbit.rotation.transposed() * k;
    const double inv = 1.0 / std::sqrt(u.x * u.x + u.y * u.y);
    const double e = orbit.elements.eccentricity;
    for (int s = 0; s < 2; ++s) {
      const double cos_f = (s == 0 ? u.x : -u.x) * inv;
      const double sin_f = (s == 0 ? u.y : -u.y) * inv;
      const double sin_max = std::min(1.0, std::abs(sin_f) + std::abs(cos_f) * sin_w);
      const double cos_min =
          std::max(-1.0, std::min(cos_f * cos_w, cos_f) - std::abs(sin_f) * sin_w);
      const double q = 1.0 + e * cos_min;
      gaps[s].*radius = orbit.p / (1.0 + e * cos_f);
      gaps[s].bound += w * (orbit.p * e * sin_max / (q * q));
    }
  };
  add(a, &NodeGap::radius_a);
  add(b, &NodeGap::radius_b);
  for (NodeGap& gap : gaps) gap.bound += reach;
  return gaps;
}

std::vector<Interval> conjunction_time_windows(const FilterOrbit& a,
                                               const FilterOrbit& b,
                                               const std::array<NodeGap, 2>& gaps,
                                               double t_begin, double t_end,
                                               double threshold_km) {
  const double sin_angle = std::max(a.normal.cross(b.normal).norm(), 0.05);

  const double reach = threshold_km + kFilterPadKm;
  // The spatial corridor around a node is kCorridorScale reaches wide;
  // larger values widen the windows (more Brent work, fewer missed
  // encounters). Shallow plane crossings produce broad distance minima, so
  // the corridor also grows as 1/sin of the plane angle (floored).
  constexpr double kCorridorScale = 8.0;
  const double corridor = kCorridorScale * reach / sin_angle;

  const std::array<NodeCrossing, 2> crossings = node_crossings(a, b);
  std::vector<Interval> result;
  for (int s = 0; s < 2; ++s) {
    if (!gaps[s].open()) continue;
    const NodeCrossing& c = crossings[s];

    // Along-track corridor -> time window: arc speed at the node is
    // r * df/dt = h / r, so w = corridor * r / h.
    const double w_a = corridor * c.radius_a / a.h;
    const double w_b = corridor * c.radius_b / b.h;

    std::vector<Interval> windows_a, windows_b;
    append_crossing_windows(a.elements, c.true_anomaly_a, w_a, t_begin, t_end, windows_a);
    append_crossing_windows(b.elements, c.true_anomaly_b, w_b, t_begin, t_end, windows_b);
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
