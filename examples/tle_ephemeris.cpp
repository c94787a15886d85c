/// Operational front end: TLE catalog -> ephemeris -> conjunction screening.
///
/// Element sets arrive as TLEs, orbits are precomputed into an interpolated
/// ephemeris (so the millions of distance evaluations hit a table instead of
/// a Kepler solve), and the grid variant screens the catalog against it.
/// The reported conjunctions are what a subsequent conjunction assessment
/// would take as input.

#include <cstdio>
#include <fstream>

#include "core/grid_screener.hpp"
#include "orbit/geometry.hpp"
#include "population/generator.hpp"
#include "population/tle.hpp"
#include "propagation/ephemeris.hpp"
#include "util/stopwatch.hpp"

int main() {
  using namespace scod;

  // --- 1. A TLE catalog. Normally this is downloaded (e.g. Celestrak's
  // active-satellite list, the seed of the paper's population model); here
  // we synthesize one so the example is self-contained, writing and
  // re-reading a real TLE file through the parser.
  const std::string path = "/tmp/scod_example_catalog.tle";
  {
    const auto population = generate_population({800, 4242});
    std::ofstream out(path);
    for (const Satellite& sat : population) {
      TleRecord rec;
      rec.name = "SYNTH-" + std::to_string(sat.id);
      rec.catalog_number = 70000 + sat.id;
      rec.intl_designator = "26001A";
      rec.epoch_year = 2026;
      rec.epoch_day = 187.5;
      rec.elements = sat.elements;
      rec.mean_motion_rev_day =
          86400.0 / orbital_period(sat.elements);
      const auto [l1, l2] = format_tle(rec);
      out << rec.name << '\n' << l1 << '\n' << l2 << '\n';
    }
  }

  const std::vector<TleRecord> catalog = load_tle_file(path);
  std::vector<Satellite> satellites;
  satellites.reserve(catalog.size());
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    satellites.push_back(to_satellite(catalog[i], static_cast<std::uint32_t>(i)));
  }
  std::printf("loaded %zu TLEs from %s\n", catalog.size(), path.c_str());

  // --- 2. Precompute the ephemeris over the screening span.
  ScreeningConfig config;
  config.threshold_km = 5.0;
  config.t_end = 6.0 * 3600.0;

  Stopwatch watch;
  const auto ephemeris = EphemerisPropagator::integrate(
      satellites, config.t_begin, config.t_end, ForceModel{});
  std::printf("integrated J2 ephemeris: %zu knots/object, %.1f MiB, %.2f s\n",
              ephemeris.knot_count(),
              static_cast<double>(ephemeris.memory_bytes()) / (1 << 20),
              watch.seconds());

  // --- 3. Screen against the interpolated ephemeris.
  watch.restart();
  const ScreeningReport report = GridScreener().screen(ephemeris, config);
  std::printf("grid screening: %zu conjunctions from %zu candidates in %.2f s\n",
              report.conjunctions.size(), report.stats.candidates, watch.seconds());
  return 0;
}
