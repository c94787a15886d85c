#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "orbit/elements.hpp"
#include "util/rng.hpp"

namespace scod::verify {

/// Orbit regimes the adversarial generator samples. Each one targets a
/// known soft spot of the screening pipeline: angle-convention degeneracies
/// (near-circular, critically inclined), filter-chain special cases
/// (coplanar pairs), tolerance boundaries (grazing-threshold PCAs), grid
/// geometry (cell-boundary straddlers at sample instants), span
/// boundaries (TCAs at the epoch edges) and the node test (eccentric
/// orbits meeting near-circular ones off the node line of nearly
/// coplanar planes).
enum class OrbitRegime : std::uint8_t {
  kBackgroundShell,       ///< dense near-circular shell traffic
  kNearCircular,          ///< e below 1e-5: anomaly conventions degenerate
  kCriticallyInclined,    ///< i = 63.43 deg (frozen argument of perigee)
  kCoplanarPair,          ///< same plane, small radial separation
  kGrazingInterceptor,    ///< engineered PCA straddling the threshold
  kCellBoundaryStraddler, ///< sits on a grid-cell face at a sample instant
  kEpochEdgeInterceptor,  ///< engineered TCA near t_begin / t_end
  kNearCoplanarEccentric, ///< eccentric grazer a few mrad off a shell plane
};

inline constexpr std::array<OrbitRegime, 8> kAllRegimes = {
    OrbitRegime::kBackgroundShell,       OrbitRegime::kNearCircular,
    OrbitRegime::kCriticallyInclined,    OrbitRegime::kCoplanarPair,
    OrbitRegime::kGrazingInterceptor,    OrbitRegime::kCellBoundaryStraddler,
    OrbitRegime::kEpochEdgeInterceptor,  OrbitRegime::kNearCoplanarEccentric,
};

const char* regime_name(OrbitRegime regime);

/// Parses a name produced by regime_name(); throws std::invalid_argument
/// on an unknown name (case files are hand-editable, fail loudly).
OrbitRegime regime_from_name(const std::string& name);

/// One self-contained differential-testing case: a catalog, the screening
/// configuration, and a randomized catalog delta for the incremental
/// service check. Fully deterministic in the generator seed, and exactly
/// reproducible from a saved case file (verify/case_io.hpp).
struct FuzzCase {
  std::uint64_t seed = 0;           ///< generator seed (0 for loaded cases)
  ScreeningConfig config;           ///< threshold / span / sample period
  std::vector<Satellite> satellites;
  /// Parallel to `satellites`: which regime produced each object.
  std::vector<OrbitRegime> regimes;

  /// Randomized service delta, applied after the baseline pass: element
  /// updates of existing ids, removals, and adds with fresh ids.
  std::vector<Satellite> delta_updates;
  std::vector<std::uint32_t> delta_removals;
  std::vector<Satellite> delta_adds;

  std::size_t size() const { return satellites.size(); }
};

/// Knobs of the adversarial case generator.
struct AdversarialConfig {
  std::uint64_t seed = 1;
  /// Background shell objects (realistic traffic the regimes hide in).
  std::size_t background = 24;
  /// Engineered objects (or pairs) per adversarial regime.
  std::size_t per_regime = 2;
  double threshold_km = 5.0;
  double t_begin = 0.0;
  double t_end = 3600.0;
  /// Sample period the cell-boundary straddlers aim their geometry at;
  /// also pinned into the case config so the grid geometry is identical
  /// across the service's baseline and incremental passes.
  double seconds_per_sample = 4.0;
  /// Fraction of the catalog touched by the randomized service delta.
  double delta_fraction = 0.1;
};

/// Generates one adversarial case: a shell of background traffic plus
/// `per_regime` engineered objects for every adversarial regime, and a
/// randomized delta. Deterministic in `config.seed`.
FuzzCase generate_case(const AdversarialConfig& config);

/// Builds a near-circular satellite whose orbit passes within ~|offset_km|
/// of `target`'s position at time `t_star`, in a plane that is NOT
/// coplanar with the target's — the deterministic way to place a true
/// conjunction at a known time and depth.
Satellite make_interceptor(const KeplerElements& target, double t_star,
                           double offset_km, Rng& rng, std::uint32_t id);

/// Builds a satellite of eccentricity `eccentricity` on a plane tilted by
/// `plane_angle` from `target`'s about a node line `node_angle` behind the
/// target's position p at `t_star`. At t_star it is at p's projection onto
/// its plane, raised by `radial_offset_km`; its true anomaly there is drawn
/// from `rng`, keeping the perigee above 6500 km.
Satellite make_near_coplanar_grazer(const KeplerElements& target, double t_star,
                                    double plane_angle, double node_angle,
                                    double eccentricity, double radial_offset_km,
                                    Rng& rng, std::uint32_t id);

}  // namespace scod::verify
