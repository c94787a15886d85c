#pragma once

#include <cstdint>
#include <vector>

#include "pca/refine.hpp"
#include "propagation/propagator.hpp"

namespace scod {

/// Options for the sampling-based encounter search.
struct DenseScanOptions {
  /// Sampling step [s]. Minima narrower than one step are caught by the
  /// Brent refinement of the surrounding bracket as long as the distance
  /// signal is unimodal inside it; orbital encounter geometry satisfies
  /// this for steps well below half the synodic variation.
  double step = 2.0;
  /// Only minima whose *sampled* value is below this are refined;
  /// infinity refines every local minimum.
  double refine_below = 1e300;
};

/// Exhaustively finds the local minima of the pairwise distance of
/// (sat_a, sat_b) over [t_begin, t_end] by dense sampling plus Brent
/// refinement of each bracketed minimum. Span endpoints that are running
/// minima are reported as (clamped) encounters.
///
/// This is the per-pair workhorse of the legacy variant for coplanar pairs
/// and the ground-truth oracle the tests compare every other search
/// strategy against.
std::vector<Encounter> scan_encounters(const Propagator& propagator,
                                       std::uint32_t sat_a, std::uint32_t sat_b,
                                       double t_begin, double t_end,
                                       const DenseScanOptions& options = {});

}  // namespace scod
