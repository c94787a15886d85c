#include "verify/adversarial.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "orbit/anomaly.hpp"
#include "orbit/frames.hpp"
#include "orbit/geometry.hpp"
#include "propagation/kepler_solver.hpp"
#include "propagation/two_body.hpp"
#include "spatial/cell.hpp"
#include "util/constants.hpp"

namespace scod::verify {

namespace {

/// Critical inclination: the J2 argument-of-perigee drift vanishes at
/// i = 63.43 deg; real constellations (Molniya, Tundra) cluster there.
constexpr double kCriticalInclination = 1.1071487177940904;  // atan(2) rad

KeplerElements shell_orbit(Rng& rng, double r0, double band) {
  KeplerElements el;
  el.semi_major_axis = r0 + rng.uniform(-band / 2.0, band / 2.0);
  el.eccentricity = rng.uniform(0.0, 2e-4);
  el.inclination = rng.uniform(0.2, kPi - 0.2);
  el.raan = rng.uniform(0.0, kTwoPi);
  el.arg_perigee = rng.uniform(0.0, kTwoPi);
  el.mean_anomaly = rng.uniform(0.0, kTwoPi);
  return el;
}

}  // namespace

const char* regime_name(OrbitRegime regime) {
  switch (regime) {
    case OrbitRegime::kBackgroundShell: return "background";
    case OrbitRegime::kNearCircular: return "near-circular";
    case OrbitRegime::kCriticallyInclined: return "critically-inclined";
    case OrbitRegime::kCoplanarPair: return "coplanar-pair";
    case OrbitRegime::kGrazingInterceptor: return "grazing-interceptor";
    case OrbitRegime::kCellBoundaryStraddler: return "cell-straddler";
    case OrbitRegime::kEpochEdgeInterceptor: return "epoch-edge";
    case OrbitRegime::kNearCoplanarEccentric: return "near-coplanar-eccentric";
  }
  return "unknown";
}

OrbitRegime regime_from_name(const std::string& name) {
  for (const OrbitRegime regime : kAllRegimes) {
    if (name == regime_name(regime)) return regime;
  }
  throw std::invalid_argument("verify: unknown orbit regime '" + name + "'");
}

Satellite make_interceptor(const KeplerElements& target, double t_star,
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

Satellite make_near_coplanar_grazer(const KeplerElements& target, double t_star,
                                    double plane_angle, double node_angle,
                                    double eccentricity, double radial_offset_km,
                                    Rng& rng, std::uint32_t id) {
  const NewtonKeplerSolver solver;
  const std::vector<Satellite> one{{0, target}};
  const Vec3 p = TwoBodyPropagator(one, solver).position(0, t_star);
  const Vec3 p_hat = p.normalized();
  const Vec3 n = normal_of(target);
  // The node line, node_angle behind p in the target's plane, and the
  // plane normal tilted about it.
  const Vec3 node = p_hat * std::cos(node_angle) - n.cross(p_hat) * std::sin(node_angle);
  const Vec3 normal = n * std::cos(plane_angle) + node.cross(n) * std::sin(plane_angle);
  const Vec3 q = p - normal * p.dot(normal);
  const double r_q = q.norm() + radial_offset_km;

  // r_q = a (1 - e^2) / (1 + e cos f), with the perigee a (1 - e) >= 6500 km.
  const double e = eccentricity;
  const double cos_floor = std::clamp((6500.0 / r_q * (1.0 + e) - 1.0) / e, -1.0, 1.0);
  const double f_abs = std::acos(rng.uniform(cos_floor, 1.0));
  const double f = rng.uniform() < 0.5 ? f_abs : -f_abs;
  KeplerElements el;
  el.semi_major_axis = r_q * (1.0 + e * std::cos(f)) / (1.0 - e * e);
  el.eccentricity = e;
  el.inclination = std::acos(std::clamp(normal.z, -1.0, 1.0));
  el.raan = wrap_two_pi(std::atan2(normal.x, -normal.y));
  const Vec3 in_plane = perifocal_to_eci(el.inclination, el.raan, 0.0).transposed() * q;
  el.arg_perigee = wrap_two_pi(std::atan2(in_plane.y, in_plane.x) - f);
  el.mean_anomaly =
      wrap_two_pi(true_to_mean(wrap_two_pi(f), e) - mean_motion(el) * t_star);
  return {id, el};
}

FuzzCase generate_case(const AdversarialConfig& config) {
  if (!(config.t_begin < config.t_end)) {
    throw std::invalid_argument("generate_case: empty time span");
  }
  Rng rng(config.seed);
  FuzzCase out;
  out.seed = config.seed;
  out.config.threshold_km = config.threshold_km;
  out.config.t_begin = config.t_begin;
  out.config.t_end = config.t_end;
  out.config.seconds_per_sample = config.seconds_per_sample;

  const double r0 = 7000.0;
  const double band = 12.0;
  std::uint32_t next_id = 0;
  const auto push = [&](const KeplerElements& el, OrbitRegime regime) {
    out.satellites.push_back({next_id++, el});
    out.regimes.push_back(regime);
  };

  // Background: dense near-circular shell so narrow that random node
  // misses land near the threshold on their own.
  for (std::size_t i = 0; i < config.background; ++i) {
    push(shell_orbit(rng, r0, band), OrbitRegime::kBackgroundShell);
  }

  const double span = config.t_end - config.t_begin;
  for (std::size_t k = 0; k < config.per_regime; ++k) {
    // Near-circular: eccentricity at the representable floor, where true,
    // eccentric and mean anomaly coincide and conversions can lose track.
    {
      KeplerElements el = shell_orbit(rng, r0, band);
      el.eccentricity = rng.uniform(0.0, 1e-5);
      push(el, OrbitRegime::kNearCircular);
    }

    // Critically inclined, in a narrow inclination band so several of them
    // share nearly-parallel planes.
    {
      KeplerElements el = shell_orbit(rng, r0, band);
      el.inclination = kCriticalInclination + rng.uniform(-1e-4, 1e-4);
      push(el, OrbitRegime::kCriticallyInclined);
    }

    // Coplanar pair: identical plane, radial separation below the
    // threshold, phase offset small enough that they shadow each other —
    // the coplanarity filter's special path must agree with the oracle.
    {
      KeplerElements lead = shell_orbit(rng, r0, band);
      lead.eccentricity = rng.uniform(0.0, 5e-5);
      KeplerElements trail = lead;
      trail.semi_major_axis += rng.uniform(-0.6, 0.6) * config.threshold_km;
      trail.mean_anomaly =
          wrap_two_pi(trail.mean_anomaly + rng.uniform(-3e-4, 3e-4));
      push(lead, OrbitRegime::kCoplanarPair);
      push(trail, OrbitRegime::kCoplanarPair);
    }

    // Grazing interceptor: PCA engineered into [0.9, 1.1] * threshold, the
    // band where tolerance handling decides found vs missed.
    {
      const std::size_t target = rng.uniform_index(out.satellites.size());
      const double t_star =
          config.t_begin + span * rng.uniform(0.15, 0.85);
      // One draw per statement: the order of two draws in one expression
      // is unspecified, so a seed's case could differ between compilers.
      const double magnitude = config.threshold_km * rng.uniform(0.9, 1.1);
      const double sign = rng.uniform() < 0.5 ? 1.0 : -1.0;
      const double offset = magnitude * sign;
      const Satellite sat = make_interceptor(out.satellites[target].elements,
                                             t_star, offset, rng, next_id);
      push(sat.elements, OrbitRegime::kGrazingInterceptor);
    }

    // Cell-boundary straddler: a circular equatorial orbit whose position
    // at a sample instant sits within metres of a grid-cell face, plus a
    // coplanar grazer whose perigee is parked a few km outside the same
    // face at the same instant. Around t_s the pair is radially separated
    // straight across the face — same y/z cells, adjacent x cells — so the
    // grid only sees it through the {1, 0, 0} neighbour offset, making any
    // defect in the neighbour-cell scan visible as a missed event.
    {
      const double cell =
          grid_cell_size(config.threshold_km, config.seconds_per_sample);
      // A cell face near the shell radius: x* = j * cell - half_extent.
      const double j = std::ceil((kSimulationHalfExtent + r0) / cell);
      const double face = j * cell - kSimulationHalfExtent;
      KeplerElements el;
      el.semi_major_axis = face + rng.uniform(-5e-3, 5e-3);
      el.eccentricity = 0.0;
      el.inclination = rng.uniform(0.0, 1e-4);
      el.raan = 0.0;
      el.arg_perigee = 0.0;
      // Puts the object on the +x axis (the cell face) exactly at the
      // sample instant t_s.
      const double t_s =
          config.t_begin +
          config.seconds_per_sample *
              std::floor(span / config.seconds_per_sample *
                         rng.uniform(0.2, 0.8));
      el.mean_anomaly = wrap_two_pi(-mean_motion(el) * t_s);
      push(el, OrbitRegime::kCellBoundaryStraddler);

      KeplerElements grazer;
      grazer.eccentricity = 0.01;
      grazer.semi_major_axis =
          (face + config.threshold_km * rng.uniform(0.3, 0.7)) /
          (1.0 - grazer.eccentricity);
      grazer.inclination = rng.uniform(0.0, 1e-4);
      grazer.raan = 0.0;
      grazer.arg_perigee = 0.0;  // perigee on the +x axis, just outside
      grazer.mean_anomaly = wrap_two_pi(-mean_motion(grazer) * t_s);
      push(grazer, OrbitRegime::kCellBoundaryStraddler);
    }

    // Epoch-edge interceptors: TCAs within seconds of the span boundaries,
    // where refinement intervals are clamped and minima may be half-cut.
    {
      const std::size_t target = rng.uniform_index(out.satellites.size());
      const bool at_start = rng.uniform() < 0.5;
      const double t_star = at_start
                                ? config.t_begin + rng.uniform(1.0, 30.0)
                                : config.t_end - rng.uniform(1.0, 30.0);
      const Satellite sat = make_interceptor(
          out.satellites[target].elements, t_star,
          config.threshold_km * rng.uniform(0.3, 0.8), rng, next_id);
      push(sat.elements, OrbitRegime::kEpochEdgeInterceptor);
    }

    // Near-coplanar eccentric pair: a shell object and a grazer with
    // e = 0.3-0.75 on a plane 0.002-0.06 rad from its (both sides of
    // kCoplanarTolerance), passing within 0.85 d of it off the node line.
    {
      const KeplerElements target = shell_orbit(rng, r0, band);
      const double tilt = rng.uniform(0.002, 0.06);
      const double t_star = config.t_begin + span * rng.uniform(0.15, 0.85);
      const double out_of_plane = 0.6 * config.threshold_km * rng.uniform();
      const double node_angle =
          std::asin(std::min(1.0, out_of_plane / (r0 * std::sin(tilt)))) *
          (rng.uniform() < 0.5 ? 1.0 : -1.0);
      const double offset = 0.6 * config.threshold_km * rng.uniform(-1.0, 1.0);
      const double e = rng.uniform(0.3, 0.75);
      push(target, OrbitRegime::kNearCoplanarEccentric);
      const Satellite grazer = make_near_coplanar_grazer(target, t_star, tilt, node_angle,
                                                         e, offset, rng, next_id);
      push(grazer.elements, OrbitRegime::kNearCoplanarEccentric);
    }
  }

  // Randomized service delta: small maneuvers on a fraction of the
  // catalog, a removal, and an add on a fresh id — the incremental path
  // must reproduce a from-scratch screen after applying it.
  const std::size_t updates = std::max<std::size_t>(
      1, static_cast<std::size_t>(config.delta_fraction *
                                  static_cast<double>(out.satellites.size())));
  std::vector<std::uint8_t> touched(out.satellites.size(), 0);
  for (std::size_t k = 0; k < updates; ++k) {
    const std::size_t idx = rng.uniform_index(out.satellites.size());
    if (touched[idx]) continue;
    touched[idx] = 1;
    Satellite sat = out.satellites[idx];
    sat.elements.mean_anomaly =
        wrap_two_pi(sat.elements.mean_anomaly + rng.uniform(-0.05, 0.05));
    sat.elements.raan = wrap_two_pi(sat.elements.raan + rng.uniform(-0.02, 0.02));
    out.delta_updates.push_back(sat);
  }
  {
    const std::size_t idx = rng.uniform_index(out.satellites.size());
    if (!touched[idx]) out.delta_removals.push_back(out.satellites[idx].id);
  }
  {
    Satellite sat = out.satellites[rng.uniform_index(out.satellites.size())];
    sat.id = 1000000 + static_cast<std::uint32_t>(rng.uniform_index(1000));
    sat.elements.raan = rng.uniform(0.0, kTwoPi);
    sat.elements.mean_anomaly = rng.uniform(0.0, kTwoPi);
    out.delta_adds.push_back(sat);
  }
  return out;
}

}  // namespace scod::verify
