#pragma once

#include <cstddef>
#include <limits>

#include "orbit/elements.hpp"
#include "orbit/state.hpp"

namespace scod {

/// Position source for a fixed set of satellites over time.
///
/// All conjunction-screening variants consume this interface: the grid
/// front-end asks for positions at the sample times, the PCA/TCA
/// refinement evaluates the pairwise distance at arbitrary times inside
/// the Brent search interval. Implementations must be safe to call
/// concurrently from many threads (they are pure functions of (index, t)).
class Propagator {
 public:
  virtual ~Propagator() = default;

  /// Number of satellites this propagator serves.
  virtual std::size_t size() const = 0;

  /// ECI position [km] of satellite `index` at `time` seconds past epoch.
  virtual Vec3 position(std::size_t index, double time) const = 0;

  /// ECI position and velocity of satellite `index` at `time`.
  virtual StateVector state(std::size_t index, double time) const = 0;

  /// Epoch elements of satellite `index`.
  virtual const KeplerElements& elements(std::size_t index) const = 0;

  /// Upper bound [km/s^2] on the magnitude of satellite `index`'s
  /// acceleration at any time. The grid front end's reach test
  /// (out_of_reach, pca/refine.hpp) drops a pair when this bound proves it
  /// cannot come within the threshold. The default, +infinity, proves
  /// nothing, so such a propagator's pairs are always emitted.
  virtual double max_acceleration(std::size_t /*index*/) const {
    return std::numeric_limits<double>::infinity();
  }

  /// True when every satellite moves for all time on the fixed Kepler
  /// ellipse of its elements(), as under two-body propagation. The hybrid
  /// and legacy variants' orbital filters read only those elements, so
  /// they refuse a propagator for which this is false. The default, false,
  /// fits every propagator whose orbits drift (j2, tle, ephemeris).
  virtual bool fixed_elements() const { return false; }

  /// Distance between two satellites at `time` [km]; the objective function
  /// the Brent search minimizes.
  double distance(std::size_t a, std::size_t b, double time) const {
    return position(a, time).distance(position(b, time));
  }
};

}  // namespace scod
