#pragma once

#include "orbit/elements.hpp"
#include "orbit/frames.hpp"
#include "util/vec3.hpp"

namespace scod {

/// Geometric view of one orbit as a closed space curve parameterized by
/// true anomaly; precomputes the rotation and conic parameters so repeated
/// evaluations inside the path-filter minimization are cheap.
class OrbitCurve {
 public:
  explicit OrbitCurve(const KeplerElements& el);

  /// ECI position at true anomaly f [km].
  Vec3 position(double true_anomaly) const;

  double eccentricity() const { return e_; }
  double semi_latus() const { return p_; }

 private:
  double p_;
  double e_;
  Mat3 rotation_;
};

/// Minimum distance between the two orbit curves (a time-free MOID-style
/// bound): the orbit path filter "further reduces the number of object
/// pairs by calculating the minimal distance between the two orbits. The
/// pairs are excluded if this distance is larger than a predefined
/// threshold" (Hoots et al. 1984).
///
/// Found by a coarse anomaly-grid scan (`coarse_samples` per orbit)
/// followed by coordinate-descent Brent refinement. The result is an upper
/// bound on the true MOID that converges quickly with the grid resolution;
/// filters use it with a pad, never as an exact quantity.
double min_orbit_distance(const KeplerElements& a, const KeplerElements& b,
                          int coarse_samples = 24);

/// Returns true when the pair SURVIVES the orbit path filter, i.e. the
/// minimum orbit-to-orbit distance is within threshold + kFilterPadKm.
bool orbit_path_overlap(const KeplerElements& a, const KeplerElements& b,
                        double threshold_km);

}  // namespace scod
