#include "propagation/two_body.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "orbit/anomaly.hpp"
#include "orbit/geometry.hpp"
#include "util/constants.hpp"

namespace scod {

namespace {

/// Satellites per batch block: bounds the stack scratch (a few lane arrays)
/// and amortizes the one virtual solver dispatch per block.
constexpr std::size_t kBatchBlock = 256;

/// M_i = M0_i + n_i * t over one block — same expression as the scalar
/// path, lane arrays stride-1.
SCOD_VEC_TARGETS
void mean_anomaly_block(const TwoBodySoA& soa, double time, std::size_t begin,
                        std::size_t len, double* out) {
  const double* m0 = soa.mean_anomaly0.data() + begin;
  const double* n = soa.mean_motion.data() + begin;
  for (std::size_t l = 0; l < len; ++l) {
    out[l] = m0[l] + n[l] * time;
  }
}

/// sin E and cos E of one block of solved eccentric anomalies.
SCOD_VEC_TARGETS
void sincos_block(const double* big_e, std::size_t len, double* sin_e, double* cos_e) {
  for (std::size_t l = 0; l < len; ++l) {
    detail::sincos_bounded(big_e[l], sin_e[l], cos_e[l]);
  }
}

/// Perifocal position from sin E and cos E, rotated to ECI — with
/// sincos_block, the lane-loop twin of detail::cache_position (same
/// expressions, same order; this file compiles with -ffp-contract=off to
/// keep the two bit-identical).
SCOD_VEC_TARGETS
void position_block(const TwoBodySoA& soa, std::size_t begin, std::size_t len,
                    const double* sin_e, const double* cos_e, Vec3* out) {
  const double* ecc = soa.eccentricity.data() + begin;
  const double* a = soa.semi_major.data() + begin;
  const double* b = soa.semi_minor.data() + begin;
  const double* r00 = soa.rotation[0].data() + begin;
  const double* r01 = soa.rotation[1].data() + begin;
  const double* r02 = soa.rotation[2].data() + begin;
  const double* r10 = soa.rotation[3].data() + begin;
  const double* r11 = soa.rotation[4].data() + begin;
  const double* r12 = soa.rotation[5].data() + begin;
  const double* r20 = soa.rotation[6].data() + begin;
  const double* r21 = soa.rotation[7].data() + begin;
  const double* r22 = soa.rotation[8].data() + begin;

  // Stride-1 lane results first — the interleaved (AoS) Vec3 stores would
  // otherwise keep the whole loop scalar — then one cheap transpose pass.
  double px[kBatchBlock], py[kBatchBlock], pz[kBatchBlock];
  for (std::size_t l = 0; l < len; ++l) {
    const double x = a[l] * (cos_e[l] - ecc[l]);
    const double y = b[l] * sin_e[l];
    const double z = 0.0;
    // Mirrors Mat3::operator* applied to {x, y, 0} term for term.
    px[l] = r00[l] * x + r01[l] * y + r02[l] * z;
    py[l] = r10[l] * x + r11[l] * y + r12[l] * z;
    pz[l] = r20[l] * x + r21[l] * y + r22[l] * z;
  }
  for (std::size_t l = 0; l < len; ++l) {
    out[l].x = px[l];
    out[l].y = py[l];
    out[l].z = pz[l];
  }
}

/// The warm-start Newton solve over one block: big_e holds each lane's
/// eccentric anomaly at time - dt on entry and the one at `time` on exit,
/// with its sine and cosine in sin_e and cos_e; cold[l] is set to 1.0 for
/// a lane whose last correction exceeds the tolerance. M is reduced to
/// [0, 2 pi), E0 = E_prev + n dt is shifted by whole turns to lie within
/// pi of it, and E0 and every Newton iterate are clamped to the root's
/// bracket [M - e, M + e] (|E - M| = e |sin E| <= e). Every sincos
/// argument is thus in (-1, 2 pi + 1), inside sincos_bounded's domain,
/// however long the span and however poor the start.
SCOD_VEC_TARGETS
void warm_solve_block(const TwoBodySoA& soa, std::size_t begin, std::size_t len,
                      double dt, const double* mean_anomaly, double* big_e,
                      double* sin_e, double* cos_e, double* cold) {
  constexpr double kInvTwoPi = 1.0 / kTwoPi;
  // kTwoPi split into a 25-bit head and its 24-bit tail: k * head and
  // k * tail are exact for the turn counts of any span, so M - k kTwoPi
  // comes out exact, like the cold path's fmod, and a month past epoch the
  // reduced M still matches it to the bit.
  constexpr double kTwoPiHi = 0x1.921fb5p+2;
  constexpr double kTwoPiLo = 0x1.110b46p-24;
  static_assert(kTwoPiHi + kTwoPiLo == kTwoPi);
  const double* n = soa.mean_motion.data() + begin;
  const double* ecc = soa.eccentricity.data() + begin;
  double m[kBatchBlock], step[kBatchBlock];
  for (std::size_t l = 0; l < len; ++l) {
    const double turns = std::floor(mean_anomaly[l] * kInvTwoPi);
    m[l] = (mean_anomaly[l] - turns * kTwoPiHi) - turns * kTwoPiLo;
    const double guess = big_e[l] + n[l] * dt;
    const double shifted = guess - kTwoPi * std::nearbyint((guess - m[l]) * kInvTwoPi);
    big_e[l] = std::min(std::max(shifted, m[l] - ecc[l]), m[l] + ecc[l]);
  }
  for (int it = 0; it < TwoBodyPropagator::kWarmNewtonSteps; ++it) {
    for (std::size_t l = 0; l < len; ++l) {
      detail::sincos_bounded(big_e[l], sin_e[l], cos_e[l]);
      const double newton =
          big_e[l] - (big_e[l] - ecc[l] * sin_e[l] - m[l]) / (1.0 - ecc[l] * cos_e[l]);
      const double next = std::min(std::max(newton, m[l] - ecc[l]), m[l] + ecc[l]);
      step[l] = big_e[l] - next;
      big_e[l] = next;
    }
  }
  for (std::size_t l = 0; l < len; ++l) {
    // The last step's sine and cosine rotated by -step to first order: the
    // dropped step^2 / 2 is below rounding once the lane is accepted.
    const double s = sin_e[l] - step[l] * cos_e[l];
    cos_e[l] = cos_e[l] + step[l] * sin_e[l];
    sin_e[l] = s;
    // NaN fails the comparison too.
    cold[l] = std::abs(step[l]) <= TwoBodyPropagator::kWarmTolerance ? 0.0 : 1.0;
  }
}

}  // namespace

TwoBodyPropagator::TwoBodyPropagator(std::span<const Satellite> satellites,
                                     const KeplerSolver& solver)
    : satellites_(satellites.begin(), satellites.end()), solver_(&solver) {
  cache_.reserve(satellites_.size());
  soa_.mean_anomaly0.reserve(satellites_.size());
  soa_.mean_motion.reserve(satellites_.size());
  soa_.eccentricity.reserve(satellites_.size());
  soa_.semi_major.reserve(satellites_.size());
  soa_.semi_minor.reserve(satellites_.size());
  for (auto& cells : soa_.rotation) cells.reserve(satellites_.size());

  for (const Satellite& sat : satellites_) {
    const KeplerElements& el = sat.elements;
    if (!is_valid_orbit(el)) {
      throw std::invalid_argument("TwoBodyPropagator: satellite " +
                                  std::to_string(sat.id) + " has invalid elements");
    }
    TwoBodyCache c;
    c.mean_anomaly0 = el.mean_anomaly;
    c.mean_motion = mean_motion(el);
    c.eccentricity = el.eccentricity;
    c.semi_latus = semi_latus_rectum(el);
    c.semi_major = el.semi_major_axis;
    c.semi_minor = el.semi_major_axis *
                   std::sqrt(1.0 - el.eccentricity * el.eccentricity);
    c.vis_viva_factor = std::sqrt(kMuEarth / c.semi_latus);
    c.rotation = perifocal_to_eci(el.inclination, el.raan, el.arg_perigee);
    cache_.push_back(c);

    soa_.mean_anomaly0.push_back(c.mean_anomaly0);
    soa_.mean_motion.push_back(c.mean_motion);
    soa_.eccentricity.push_back(c.eccentricity);
    soa_.semi_major.push_back(c.semi_major);
    soa_.semi_minor.push_back(c.semi_minor);
    for (int r = 0; r < 3; ++r) {
      for (int col = 0; col < 3; ++col) {
        soa_.rotation[3 * r + col].push_back(c.rotation.m[r][col]);
      }
    }
  }
}

double TwoBodyPropagator::true_anomaly(std::size_t index, double time) const {
  const TwoBodyCache& c = cache_[index];
  const double m = c.mean_anomaly0 + c.mean_motion * time;
  const double big_e = solver_->eccentric_anomaly(m, c.eccentricity);
  return eccentric_to_true(big_e, c.eccentricity);
}

Vec3 TwoBodyPropagator::position(std::size_t index, double time) const {
  return detail::cache_position(cache_[index], *solver_, time);
}

StateVector TwoBodyPropagator::state(std::size_t index, double time) const {
  return detail::cache_state(cache_[index], *solver_, time);
}

void TwoBodyPropagator::positions_at(double time, std::size_t begin, std::size_t end,
                                     Vec3* out, double* anomalies) const {
  double m_buf[kBatchBlock];
  double e_buf[kBatchBlock];
  double sin_e[kBatchBlock], cos_e[kBatchBlock];
  for (std::size_t base = begin; base < end; base += kBatchBlock) {
    const std::size_t len = std::min(kBatchBlock, end - base);
    double* big_e = anomalies != nullptr ? anomalies + (base - begin) : e_buf;
    mean_anomaly_block(soa_, time, base, len, m_buf);
    solver_->eccentric_anomalies({m_buf, len},
                                 {soa_.eccentricity.data() + base, len}, {big_e, len});
    sincos_block(big_e, len, sin_e, cos_e);
    position_block(soa_, base, len, sin_e, cos_e, out + (base - begin));
  }
}

void TwoBodyPropagator::positions_warm(double time, double dt, std::size_t begin,
                                       std::size_t end, double* anomalies,
                                       Vec3* out) const {
  double m_buf[kBatchBlock];
  double cold[kBatchBlock];
  double sin_e[kBatchBlock], cos_e[kBatchBlock];
  for (std::size_t base = begin; base < end; base += kBatchBlock) {
    const std::size_t len = std::min(kBatchBlock, end - base);
    double* big_e = anomalies + (base - begin);
    mean_anomaly_block(soa_, time, base, len, m_buf);
    warm_solve_block(soa_, base, len, dt, m_buf, big_e, sin_e, cos_e, cold);
    // Cold re-solve of the lanes Newton did not settle, batched: the
    // solver is bit-identical lane by lane however the lanes are grouped.
    double m_cold[kBatchBlock], e_cold[kBatchBlock], solved[kBatchBlock];
    std::size_t lanes[kBatchBlock];
    std::size_t count = 0;
    for (std::size_t l = 0; l < len; ++l) {
      if (cold[l] == 0.0) continue;
      lanes[count] = l;
      m_cold[count] = m_buf[l];
      e_cold[count] = soa_.eccentricity[base + l];
      ++count;
    }
    if (count != 0) {
      solver_->eccentric_anomalies({m_cold, count}, {e_cold, count}, {solved, count});
      for (std::size_t k = 0; k < count; ++k) {
        const std::size_t l = lanes[k];
        big_e[l] = solved[k];
        detail::sincos_bounded(big_e[l], sin_e[l], cos_e[l]);
      }
    }
    position_block(soa_, base, len, sin_e, cos_e, out + (base - begin));
  }
}

const KeplerElements& TwoBodyPropagator::elements(std::size_t index) const {
  return satellites_[index].elements;
}

}  // namespace scod
