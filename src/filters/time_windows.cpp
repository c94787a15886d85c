#include "filters/time_windows.hpp"

#include <algorithm>
#include <cmath>

#include "filters/filter_chain.hpp"
#include "orbit/anomaly.hpp"
#include "orbit/frames.hpp"
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
double anomaly_toward(const KeplerElements& el, const Vec3& k) {
  const Mat3 rot = perifocal_to_eci(el.inclination, el.raan, el.arg_perigee);
  const Vec3 u = rot.transposed() * k;  // node direction in the perifocal frame
  return wrap_two_pi(std::atan2(u.y, u.x));
}

NodeCrossing crossing_at(const KeplerElements& a, const KeplerElements& b,
                         const Vec3& k) {
  NodeCrossing c;
  c.true_anomaly_a = anomaly_toward(a, k);
  c.true_anomaly_b = anomaly_toward(b, k);
  c.radius_a = radius_at_true_anomaly(a, c.true_anomaly_a);
  c.radius_b = radius_at_true_anomaly(b, c.true_anomaly_b);
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

std::array<NodeCrossing, 2> node_crossings(const KeplerElements& a,
                                           const KeplerElements& b) {
  const Vec3 k = normal_of(a).cross(normal_of(b)).normalized();
  return {crossing_at(a, b, k), crossing_at(a, b, -k)};
}

std::vector<Interval> conjunction_time_windows(const KeplerElements& a,
                                               const KeplerElements& b,
                                               double t_begin, double t_end,
                                               double threshold_km) {
  const Vec3 cross = normal_of(a).cross(normal_of(b));
  const double sin_angle = std::max(cross.norm(), 0.05);
  const Vec3 k = cross / cross.norm();

  const double reach = threshold_km + kFilterPadKm;
  // The spatial corridor around a node is kCorridorScale reaches wide;
  // larger values widen the windows (more Brent work, fewer missed
  // encounters). Shallow plane crossings produce broad distance minima, so
  // the corridor also grows as 1/sin of the plane angle (floored).
  constexpr double kCorridorScale = 8.0;
  const double corridor = kCorridorScale * reach / sin_angle;

  std::vector<Interval> result;
  for (const Vec3& direction : {k, -k}) {
    const NodeCrossing c = crossing_at(a, b, direction);
    if (c.miss_distance > reach) continue;

    // Along-track corridor -> time window: arc speed at the node is
    // r * df/dt = h / r, so w = corridor * r / h.
    const double h_a = std::sqrt(kMuEarth * semi_latus_rectum(a));
    const double h_b = std::sqrt(kMuEarth * semi_latus_rectum(b));
    const double w_a = corridor * c.radius_a / h_a;
    const double w_b = corridor * c.radius_b / h_b;

    std::vector<Interval> windows_a, windows_b;
    append_crossing_windows(a, c.true_anomaly_a, w_a, t_begin, t_end, windows_a);
    append_crossing_windows(b, c.true_anomaly_b, w_b, t_begin, t_end, windows_b);
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
