#pragma once

#include <cmath>

namespace scod::detail {

/// Vectorization-friendly trigonometric kernels shared by the scalar and
/// batched propagation paths.
///
/// The batched SoA kernels (ContourKeplerSolver::eccentric_anomalies,
/// TwoBodyPropagator::positions_at) must produce bit-identical results to
/// the per-call scalar path — the screeners treat the two as interchangeable
/// and the equivalence tests assert agreement to 1e-12 km, which at orbital
/// radii is below one ulp of the eccentric anomaly. libm's sin/cos cannot be
/// used inside an auto-vectorized lane loop (the call blocks vectorization,
/// and libmvec's vector variants round differently from the scalar ones), so
/// both paths route through these helpers: pure branch-free polynomial
/// arithmetic, identical operation order scalar or SIMD. The translation
/// units using them compile with -ffp-contract=off so the compiler cannot
/// contract a*b+c into fma in one path but not the other.
///
/// One batched kernel is not bit-identical by design:
/// TwoBodyPropagator::positions_warm, which the CPU grid front end uses on
/// every step of a run but the first, solves Kepler's equation by Newton
/// from the previous step's anomaly instead of by the contour quadrature.
/// It uses these helpers too, and its positions agree with the scalar
/// path's within 1e-9 km. Refinement, devicesim and positions_at stay
/// bit-identical to position().
///
/// Domains are what the contour quadrature needs — NOT general-purpose:
/// the quadrature arguments satisfy |zx| < 4.2, |zy| <= 0.52, the
/// Newton-polish/position arguments are eccentric anomalies in
/// [0, 2*pi) + epsilon, and positions_warm's are clamped to the root's
/// bracket [M - e, M + e] with M in [0, 2*pi), so lie in (-1, 2*pi + 1).

/// Simultaneous sin/cos for |x| <= 8 (one Cody-Waite reduction step by
/// pi/2; with |k| <= 5 the dropped third reduction term contributes
/// ~1e-20). Polynomials are the fdlibm __kernel_sin/__kernel_cos minimax
/// fits on [-pi/4, pi/4], accurate to ~1 ulp.
inline void sincos_bounded(double x, double& sin_out, double& cos_out) {
  constexpr double kTwoOverPi = 6.36619772367581382433e-01;
  constexpr double kPiO2Hi = 1.57079632673412561417e+00;  // pi/2 head (33 bits)
  constexpr double kPiO2Lo = 6.07710050650619224932e-11;  // pi/2 tail

  constexpr double kS1 = -1.66666666666666324348e-01;
  constexpr double kS2 = 8.33333333332248946124e-03;
  constexpr double kS3 = -1.98412698298579493134e-04;
  constexpr double kS4 = 2.75573137070700676789e-06;
  constexpr double kS5 = -2.50507602534068634195e-08;
  constexpr double kS6 = 1.58969099521155010221e-10;

  constexpr double kC1 = 4.16666666666666019037e-02;
  constexpr double kC2 = -1.38888888888741095749e-03;
  constexpr double kC3 = 2.48015872894767294178e-05;
  constexpr double kC4 = -2.75573143513906633035e-07;
  constexpr double kC5 = 2.08757232129817482790e-09;
  constexpr double kC6 = -1.13596475577881948265e-11;

  const double k = std::nearbyint(x * kTwoOverPi);
  const double r = (x - k * kPiO2Hi) - k * kPiO2Lo;
  const double z = r * r;

  const double s_poly =
      r + (z * r) * (kS1 + z * (kS2 + z * (kS3 + z * (kS4 + z * (kS5 + z * kS6)))));
  const double c_tail = z * (kC1 + z * (kC2 + z * (kC3 + z * (kC4 + z * (kC5 + z * kC6)))));
  const double hz = 0.5 * z;
  const double w = 1.0 - hz;
  const double c_poly = w + (((1.0 - w) - hz) + z * c_tail);

  // Quadrant fix-up:
  //   sin(r + q*pi/2) = { S, C, -S, -C }[q],  cos = { C, -S, -C, S }[q].
  // Written as arithmetic 0/1-mask blends, not ternaries: GCC refuses to
  // if-convert the two-way selects and the branch kills vectorization of
  // every loop this inlines into. Blending with exact 0.0/1.0 factors is
  // value-preserving (x*1 + y*0 == x up to the sign of zero), so the
  // scalar and SIMD paths still agree bit for bit.
  const int q = static_cast<int>(k) & 3;
  const double swap_mask = static_cast<double>(q & 1);       // 1.0 when q is odd
  const double keep_mask = 1.0 - swap_mask;
  const double s_sign = 1.0 - static_cast<double>(q & 2);    // -1.0 for q = 2, 3
  const double c_sign = 1.0 - static_cast<double>((q + 1) & 2);
  sin_out = s_sign * (s_poly * keep_mask + c_poly * swap_mask);
  cos_out = c_sign * (c_poly * keep_mask + s_poly * swap_mask);
}

/// Simultaneous sinh/cosh for |x| <= 0.52 (the contour radius is at most
/// 0.5 * e * 1.02 < 0.51 for elliptic orbits). Plain Taylor series; the
/// first truncated terms (x^15/15!, x^16/16!) are below 1 ulp on the
/// domain.
inline void sinhcosh_small(double x, double& sinh_out, double& cosh_out) {
  const double z = x * x;
  cosh_out =
      1.0 + z * (1.0 / 2.0 +
                 z * (1.0 / 24.0 +
                      z * (1.0 / 720.0 +
                           z * (1.0 / 40320.0 +
                                z * (1.0 / 3628800.0 +
                                     z * (1.0 / 479001600.0 + z * (1.0 / 87178291200.0)))))));
  sinh_out =
      x * (1.0 + z * (1.0 / 6.0 +
                      z * (1.0 / 120.0 +
                           z * (1.0 / 5040.0 +
                                z * (1.0 / 362880.0 +
                                     z * (1.0 / 39916800.0 + z * (1.0 / 6227020800.0)))))));
}

}  // namespace scod::detail

/// Function multi-versioning for the batched lane kernels: the portable
/// x86-64 baseline (SSE2, 2 doubles/vector) plus an x86-64-v3 clone
/// (AVX2, 4 doubles/vector), selected once at load time via ifunc. The
/// clones run the same -ffp-contract=off arithmetic, only wider, so the
/// bit-identical guarantee holds on every dispatch target.
///
/// Disabled under ThreadSanitizer: GCC instruments the generated ifunc
/// resolvers, and the dynamic loader runs them during relocation —
/// before __tsan_init — so any binary linking a clone segfaults at load.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__)
#define SCOD_VEC_TARGETS __attribute__((target_clones("default", "arch=x86-64-v3")))
#else
#define SCOD_VEC_TARGETS
#endif
