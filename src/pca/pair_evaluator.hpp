#pragma once

#include <cstdint>

#include "propagation/contour_solver.hpp"
#include "propagation/two_body.hpp"

namespace scod {

/// Devirtualized objective function for the Brent refinement (Section
/// IV-C). The legacy path pays two virtual dispatches (Propagator::position
/// -> KeplerSolver::eccentric_anomaly) plus a cache-line-scattered
/// TwoBodyCache load for BOTH satellites on EVERY objective evaluation —
/// and Brent evaluates the objective dozens of times per candidate. This
/// evaluator snapshots both satellites' cache entries and binds the
/// concrete ContourKeplerSolver once per candidate, so each evaluation is a
/// direct call on local data. It routes through the same
/// detail::cache_position/cache_state helpers as TwoBodyPropagator, so the
/// refined TCAs/PCAs are unchanged.
class PairStateEvaluator {
 public:
  PairStateEvaluator(const TwoBodyPropagator& propagator,
                     const ContourKeplerSolver& solver, std::uint32_t sat_a,
                     std::uint32_t sat_b)
      : cache_a_(propagator.cache(sat_a)),
        cache_b_(propagator.cache(sat_b)),
        solver_(&solver) {}

  /// Pairwise distance [km] at `time` — the Brent objective.
  double distance(double time) const {
    return detail::cache_position(cache_a_, *solver_, time)
        .distance(detail::cache_position(cache_b_, *solver_, time));
  }

  /// Both satellites' states, for the cell-crossing search radius of
  /// grid-style refinement.
  StateVector state_a(double time) const {
    return detail::cache_state(cache_a_, *solver_, time);
  }
  StateVector state_b(double time) const {
    return detail::cache_state(cache_b_, *solver_, time);
  }

 private:
  TwoBodyCache cache_a_;
  TwoBodyCache cache_b_;
  const ContourKeplerSolver* solver_;
};

/// Virtual-dispatch counterpart of PairStateEvaluator, with the same
/// distance / state_a / state_b surface, for any other propagator.
class PropagatorPairEvaluator {
 public:
  PropagatorPairEvaluator(const Propagator& propagator, std::uint32_t sat_a,
                          std::uint32_t sat_b)
      : propagator_(&propagator), sat_a_(sat_a), sat_b_(sat_b) {}

  double distance(double time) const {
    return propagator_->distance(sat_a_, sat_b_, time);
  }
  StateVector state_a(double time) const { return propagator_->state(sat_a_, time); }
  StateVector state_b(double time) const { return propagator_->state(sat_b_, time); }

 private:
  const Propagator* propagator_;
  std::uint32_t sat_a_;
  std::uint32_t sat_b_;
};

/// Resolves the concrete (TwoBodyPropagator, ContourKeplerSolver) pair
/// behind an abstract Propagator — once per refinement phase, so the
/// per-candidate hot loop never touches RTTI. visit() then hands each pair
/// to a callable as a PairStateEvaluator when the fast path is available,
/// and as a PropagatorPairEvaluator otherwise; both evaluate the same
/// positions, so the refined TCAs/PCAs do not depend on the path taken.
class RefineFastPath {
 public:
  static RefineFastPath probe(const Propagator& p) {
    RefineFastPath fast;
    fast.base_ = &p;
    fast.propagator_ = dynamic_cast<const TwoBodyPropagator*>(&p);
    if (fast.propagator_ != nullptr) {
      fast.solver_ =
          dynamic_cast<const ContourKeplerSolver*>(&fast.propagator_->solver());
    }
    return fast;
  }

  bool available() const { return solver_ != nullptr; }

  /// Calls `fn(evaluator)` with the pair's evaluator and returns its result.
  template <typename Fn>
  auto visit(std::uint32_t sat_a, std::uint32_t sat_b, Fn&& fn) const {
    if (available()) {
      return fn(PairStateEvaluator(*propagator_, *solver_, sat_a, sat_b));
    }
    return fn(PropagatorPairEvaluator(*base_, sat_a, sat_b));
  }

 private:
  const Propagator* base_ = nullptr;
  const TwoBodyPropagator* propagator_ = nullptr;
  const ContourKeplerSolver* solver_ = nullptr;
};

}  // namespace scod
