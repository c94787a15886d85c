/// Eq. (1) ablation: the worst-case cell-size guarantee of Fig. 4.
///
/// g_c = d + 7.8 * s_ps guarantees that no sub-threshold approach is
/// skipped between samples. This harness seeds a population with
/// engineered conjunctions at known times and runs the grid variant with
/// the cell size scaled by factors <= 1: at factor 1.0 (Eq. 1) every
/// engineered encounter is found; as the factor shrinks the variant starts
/// to skip encounters exactly as the Fig. 4 analysis predicts — and the
/// runtime falls, which is the temptation Eq. (1) exists to forbid.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>

#include "bench/common.hpp"
#include "core/grid_screener.hpp"
#include "propagation/kepler_solver.hpp"
#include "propagation/two_body.hpp"
#include "orbit/anomaly.hpp"
#include "orbit/frames.hpp"
#include "orbit/geometry.hpp"
#include "spatial/cell.hpp"
#include "util/rng.hpp"

namespace {

using namespace scod;

/// Near-circular satellite passing within ~|offset| km of `target`'s
/// position at t_star, in a different plane (same construction as the test
/// suite's interceptor helper).
Satellite interceptor(const KeplerElements& target, double t_star, double offset,
                      Rng& rng, std::uint32_t id) {
  const NewtonKeplerSolver solver;
  const std::vector<Satellite> one{{0, target}};
  const TwoBodyPropagator prop(one, solver);
  const Vec3 p = prop.position(0, t_star);
  const Vec3 p_hat = p.normalized();
  KeplerElements el;
  for (;;) {
    const Vec3 u{rng.gaussian(), rng.gaussian(), rng.gaussian()};
    const Vec3 normal = p_hat.cross(u).normalized();
    if (normal.norm() < 0.5) continue;
    el.semi_major_axis = p.norm() + offset;
    el.eccentricity = 1e-6;
    el.inclination = std::acos(std::clamp(normal.z, -1.0, 1.0));
    el.raan = wrap_two_pi(std::atan2(normal.x, -normal.y));
    el.arg_perigee = 0.0;
    if (plane_angle(el, target) < 0.1) continue;
    const Mat3 rot = perifocal_to_eci(el.inclination, el.raan, el.arg_perigee);
    const Vec3 in_plane = rot.transposed() * p_hat;
    const double f = wrap_two_pi(std::atan2(in_plane.y, in_plane.x));
    el.mean_anomaly =
        wrap_two_pi(true_to_mean(f, el.eccentricity) - mean_motion(el) * t_star);
    break;
  }
  return {id, el};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace scod;
  using namespace scod::bench;

  HarnessOptions opt = parse_harness_options(argc, argv);
  print_banner("Eq. (1) ablation: cell-size no-skip guarantee",
               "paper Section III-A, Eq. 1 and Fig. 4");

  // Background population plus 40 engineered encounters at known times.
  const std::size_t kBackground = 500;
  const std::size_t kEngineered = 40;
  auto sats = generate_population({kBackground, opt.seed});
  Rng rng(opt.seed ^ 0x5117);
  std::vector<double> planted_times;
  for (std::uint32_t k = 0; k < kEngineered; ++k) {
    // Targets in LEO only, so the interceptor geometry stays well-behaved.
    std::size_t target;
    do {
      target = rng.uniform_index(kBackground);
    } while (sats[target].elements.semi_major_axis > 8000.0);
    const double t_star = rng.uniform(0.1 * opt.span, 0.9 * opt.span);
    planted_times.push_back(t_star);
    sats.push_back(interceptor(sats[target].elements, t_star,
                               rng.uniform(-1.0, 1.0), rng,
                               static_cast<std::uint32_t>(kBackground + k)));
  }

  std::printf("population: %zu background + %zu engineered encounters\n",
              kBackground, kEngineered);
  const double eq1_cell = grid_cell_size(opt.threshold, opt.sps_grid);
  std::printf("Eq. (1) cell size at d=%.1f km, s_ps=%.0f s: %.1f km\n\n",
              opt.threshold, opt.sps_grid, eq1_cell);

  TextTable table({"cell factor", "cell [km]", "time [s]", "candidates",
                   "planted found", "planted missed"});

  for (double factor : {1.0, 0.75, 0.5, 0.25, 0.1}) {
    GridPipelineOptions options;
    options.cell_size_override = factor * eq1_cell;

    ScreeningConfig cfg = make_config(opt);
    cfg.seconds_per_sample = opt.sps_grid;
    ScreeningReport report;
    const double secs = median_seconds(
        [&] {
          report = make_screener(Variant::kGrid, nullptr, options)
                       ->screen(sats, cfg);
        },
        opt.repeats);

    std::size_t found = 0;
    for (std::size_t k = 0; k < kEngineered; ++k) {
      const auto id = static_cast<std::uint32_t>(kBackground + k);
      for (const Conjunction& c : report.conjunctions) {
        if ((c.sat_a == id || c.sat_b == id) &&
            std::abs(c.tca - planted_times[k]) < 30.0) {
          ++found;
          break;
        }
      }
    }
    table.add_row({TextTable::num(factor, 2),
                   TextTable::num(factor * eq1_cell, 1), TextTable::num(secs, 3),
                   TextTable::integer(static_cast<long long>(report.stats.candidates)),
                   TextTable::integer(static_cast<long long>(found)),
                   TextTable::integer(static_cast<long long>(kEngineered - found))});
    std::printf("  factor %.2f: %zu/%zu planted encounters found\n", factor, found,
                kEngineered);
    std::fflush(stdout);
  }

  std::printf("\n");
  table.print(std::cout);
  std::printf(
      "\nreading: at factor 1.00 (Eq. 1) every planted encounter is found;\n"
      "smaller cells are faster but start skipping the Fig. 4 worst case.\n");
  return 0;
}
