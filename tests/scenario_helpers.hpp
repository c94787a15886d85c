#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>
#include <vector>

#include "core/grid_pipeline.hpp"
#include "filters/coplanarity.hpp"
#include "orbit/anomaly.hpp"
#include "orbit/elements.hpp"
#include "orbit/frames.hpp"
#include "orbit/geometry.hpp"
#include "orbit/state.hpp"
#include "propagation/kepler_solver.hpp"
#include "propagation/two_body.hpp"
#include "util/constants.hpp"
#include "util/rng.hpp"

namespace scod::testutil {

/// Runs the grid front-end and returns every round's candidates sorted by
/// (pair, step); the pipeline's counters go to `result`. Adds a test
/// failure when a (pair, step) is emitted more than once: the candidate
/// buffer does not deduplicate, so neither the half-stencil scan nor the
/// masked lookup may repeat one.
inline std::vector<Candidate> pipeline_candidates(const Propagator& propagator,
                                                  const ScreeningConfig& config,
                                                  const ConjunctionCountModel& model,
                                                  const GridPipelineOptions& options,
                                                  GridPipelineResult& result) {
  std::vector<Candidate> all;
  result = run_grid_pipeline(
      propagator, config, model, options,
      [&](std::size_t, std::span<const std::uint64_t> round, const GridPipelineResult&) {
        for (const std::uint64_t key : round) all.push_back(unpack_candidate(key));
      });
  const auto key = [](const Candidate& c) { return std::tie(c.sat_a, c.sat_b, c.step); };
  std::sort(all.begin(), all.end(),
            [&](const Candidate& x, const Candidate& y) { return key(x) < key(y); });
  const auto repeat = std::adjacent_find(
      all.begin(), all.end(),
      [&](const Candidate& x, const Candidate& y) { return key(x) == key(y); });
  if (repeat != all.end()) {
    ADD_FAILURE() << "candidate (" << repeat->sat_a << ", " << repeat->sat_b << ", step "
                  << repeat->step << ") emitted more than once";
  }
  return all;
}

/// Forwards every call to another propagator. Not being a
/// TwoBodyPropagator itself, it hides the devirtualized refinement (and
/// the batched insertion kernel) from the screeners.
class ForwardingPropagator final : public Propagator {
 public:
  explicit ForwardingPropagator(const Propagator& inner) : inner_(inner) {}

  std::size_t size() const override { return inner_.size(); }
  Vec3 position(std::size_t index, double time) const override {
    return inner_.position(index, time);
  }
  StateVector state(std::size_t index, double time) const override {
    return inner_.state(index, time);
  }
  const KeplerElements& elements(std::size_t index) const override {
    return inner_.elements(index);
  }
  double max_acceleration(std::size_t index) const override {
    return inner_.max_acceleration(index);
  }
  bool fixed_elements() const override { return inner_.fixed_elements(); }

 private:
  const Propagator& inner_;
};

/// Builds a near-circular satellite whose orbit passes within ~|offset_km|
/// of `target`'s position at time `t_star`, in a plane that is NOT
/// coplanar with the target's. This engineers a guaranteed sub-|offset|
/// close approach at a known time — the deterministic way to seed test
/// populations with true conjunctions instead of waiting for random
/// geometry to align.
inline Satellite make_interceptor(const KeplerElements& target, double t_star,
                                  double offset_km, Rng& rng, std::uint32_t id) {
  const NewtonKeplerSolver solver;
  const std::vector<Satellite> one{{0, target}};
  const TwoBodyPropagator prop(one, solver);
  const Vec3 p = prop.position(0, t_star);
  const Vec3 p_hat = p.normalized();

  // Random plane containing the encounter point, rejected until it is
  // clearly non-coplanar with the target's plane.
  KeplerElements el;
  for (;;) {
    const Vec3 u{rng.gaussian(), rng.gaussian(), rng.gaussian()};
    const Vec3 normal = p_hat.cross(u).normalized();
    if (normal.norm() < 0.5) continue;  // u parallel to p: retry

    el.semi_major_axis = p.norm() + offset_km;
    el.eccentricity = 1e-6;
    el.inclination = std::acos(std::clamp(normal.z, -1.0, 1.0));
    // orbit_normal() = (sin(raan) sin(i), -cos(raan) sin(i), cos(i)).
    el.raan = wrap_two_pi(std::atan2(normal.x, -normal.y));
    el.arg_perigee = 0.0;
    el.mean_anomaly = 0.0;
    if (plane_angle(el, target) < 0.1) continue;

    // True anomaly of the encounter direction within the new plane, then
    // back out the epoch mean anomaly that puts the object there at t_star.
    const Mat3 rot = perifocal_to_eci(el.inclination, el.raan, el.arg_perigee);
    const Vec3 in_plane = rot.transposed() * p_hat;
    const double f = wrap_two_pi(std::atan2(in_plane.y, in_plane.x));
    const double m_at_t = true_to_mean(f, el.eccentricity);
    el.mean_anomaly = wrap_two_pi(m_at_t - mean_motion(el) * t_star);
    break;
  }
  return {id, el};
}

/// Builds a circular satellite that passes through the point where
/// `target` is at time `t_star`, but `lag_s` seconds later, moving at
/// `angle` to the target's velocity there (near pi: almost head on). The
/// orbits intersect, so the node test keeps the pair; how close the two
/// objects come depends on the lag and the angle.
inline Satellite make_late_crosser(const KeplerElements& target, double t_star,
                                   double angle, double lag_s, std::uint32_t id) {
  const NewtonKeplerSolver solver;
  const std::vector<Satellite> one{{0, target}};
  const TwoBodyPropagator prop(one, solver);
  const StateVector at = prop.state(0, t_star);
  const Vec3 up = at.position.normalized();
  const Vec3 along = (at.velocity - up * at.velocity.dot(up)).normalized();
  const Vec3 side = up.cross(along);
  const double speed = std::sqrt(kMuEarth / at.position.norm());
  KeplerElements el = elements_from_state(
      {at.position, (along * std::cos(angle) + side * std::sin(angle)) * speed});
  el.mean_anomaly = wrap_two_pi(el.mean_anomaly - mean_motion(el) * (t_star + lag_s));
  return {id, el};
}

}  // namespace scod::testutil
