/// scod — command-line front end to the conjunction-screening library.
///
///   scod generate --count 4000 --seed 7 --out catalog.csv
///   scod generate --count 800 --out catalog.tle
///   scod screen   --catalog catalog.csv --variant hybrid --span 7200
///                 --threshold 2 [--propagator kepler|j2|ephemeris|tle]
///                 [--csv out.csv] [--telemetry]
///   scod info
///
/// Catalog format is chosen by extension: .csv (catalog_io), or .tle / .txt
/// (TLE sets). An unknown option is a usage error (exit 2).

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/screen.hpp"
#include "obs/telemetry.hpp"
#include "population/catalog_io.hpp"
#include "population/generator.hpp"
#include "orbit/geometry.hpp"
#include "population/tle.hpp"
#include "propagation/contour_solver.hpp"
#include "propagation/ephemeris.hpp"
#include "propagation/j2_secular.hpp"
#include "propagation/tle_secular.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/sysinfo.hpp"
#include "util/table.hpp"

namespace {

using namespace scod;

int usage() {
  std::fprintf(stderr,
               "usage: scod <command> [options]\n"
               "\n"
               "commands:\n"
               "  generate  --count N [--seed S] --out FILE(.csv|.tle|.txt)\n"
               "  screen    --catalog FILE [--variant grid|hybrid|legacy]\n"
               "            [--threshold KM] [--span S] [--sps S]\n"
               "            [--propagator kepler|j2|ephemeris|tle] [--csv OUT]\n"
               "            [--telemetry]\n"
               "  info\n");
  return 2;
}

/// A misspelled or leftover option is a usage error, not a silent default.
bool has_unknown_option(const CliArgs& args) {
  if (args.unknown().empty()) return false;
  std::fprintf(stderr, "unknown option: %s\n", args.unknown().front().c_str());
  return true;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool is_tle_path(const std::string& path) {
  return ends_with(path, ".tle") || ends_with(path, ".txt");
}

std::vector<Satellite> load_catalog(const std::string& path) {
  if (is_tle_path(path)) {
    const auto records = load_tle_file(path);
    std::vector<Satellite> sats;
    sats.reserve(records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
      sats.push_back(to_satellite(records[i], static_cast<std::uint32_t>(i)));
    }
    return sats;
  }
  return load_catalog_csv(path);
}

int cmd_generate(int argc, const char* const* argv) {
  const CliArgs args(argc, argv, {"count", "seed", "out"});
  if (has_unknown_option(args)) return usage();
  const std::int64_t count = args.get_int("count", 1000);
  if (count < 0) {
    std::fprintf(stderr, "generate: --count must be non-negative\n");
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  const std::string out = args.get_string("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "generate: --out is required\n");
    return 2;
  }

  const auto sats = generate_population({static_cast<std::size_t>(count), seed});
  if (is_tle_path(out)) {
    std::ofstream file(out);
    if (!file) {
      std::fprintf(stderr, "generate: cannot open %s\n", out.c_str());
      return 1;
    }
    for (const Satellite& sat : sats) {
      TleRecord rec;
      rec.name = "SYNTH-" + std::to_string(sat.id);
      rec.catalog_number = 70000 + sat.id;
      rec.intl_designator = "26001A";
      rec.epoch_year = 2026;
      rec.epoch_day = 187.5;
      rec.elements = sat.elements;
      rec.mean_motion_rev_day = 86400.0 / orbital_period(sat.elements);
      const auto [l1, l2] = format_tle(rec);
      file << rec.name << '\n' << l1 << '\n' << l2 << '\n';
    }
  } else {
    save_catalog_csv(out, sats);
  }
  std::printf("wrote %zu objects to %s\n", sats.size(), out.c_str());
  return 0;
}

int cmd_screen(int argc, const char* const* argv) {
  const CliArgs args(argc, argv, {"catalog", "variant", "threshold", "span", "sps",
                                  "propagator", "csv", "telemetry"});
  if (has_unknown_option(args)) return usage();
  const std::string catalog_path = args.get_string("catalog", "");
  if (catalog_path.empty()) {
    std::fprintf(stderr, "screen: --catalog is required\n");
    return 2;
  }
  const bool telemetry = args.get_bool("telemetry", false);
  if (telemetry && !obs::compiled()) {
    std::fprintf(stderr,
                 "screen: --telemetry requested but this build has "
                 "SCOD_TELEMETRY=OFF\n");
    return 2;
  }
  if (telemetry) {
    obs::reset();
    obs::set_enabled(true);
  }
  const auto sats = load_catalog(catalog_path);

  ScreeningConfig config;
  config.threshold_km = args.get_double("threshold", 2.0);
  config.t_end = args.get_double("span", 7200.0);
  config.seconds_per_sample = args.get_double("sps", 0.0);

  const std::string variant_str = args.get_string("variant", "grid");
  const std::string prop_str = args.get_string("propagator", "kepler");

  const std::optional<Variant> variant = parse_variant(variant_str);
  if (!variant.has_value()) {
    std::fprintf(stderr, "screen: unknown variant '%s'\n", variant_str.c_str());
    return 2;
  }
  // One dispatch for all three variants: the factory hides which concrete
  // screener runs, and every variant accepts an external propagator.
  const std::unique_ptr<Screener> screener = make_screener(*variant);

  ScreeningReport report;
  const ContourKeplerSolver solver;
  if (prop_str == "kepler") {
    // The default path builds the two-body propagator inside the screener,
    // where its setup is timed as the paper's step-1 allocation.
    report = screener->screen(sats, config);
  } else if (prop_str == "j2") {
    const J2SecularPropagator prop(sats, solver);
    report = screener->screen(prop, config);
  } else if (prop_str == "ephemeris") {
    const auto prop = EphemerisPropagator::integrate(sats, config.t_begin,
                                                     config.t_end, ForceModel{});
    report = screener->screen(prop, config);
  } else if (prop_str == "tle") {
    if (!is_tle_path(catalog_path)) {
      std::fprintf(stderr, "screen: --propagator tle needs a .tle catalog\n");
      return 2;
    }
    const auto records = load_tle_file(catalog_path);
    const TleSecularPropagator prop(records, solver);
    report = screener->screen(prop, config);
  } else {
    std::fprintf(stderr, "screen: unknown propagator '%s'\n", prop_str.c_str());
    return 2;
  }

  std::printf("%s screening of %zu objects over %.0f s (d = %.2f km):\n",
              variant_str.c_str(), sats.size(), config.span_seconds(),
              config.threshold_km);
  std::printf("  %zu conjunctions, %zu pairs, %.2f s "
              "(alloc %.2f / ins %.2f / cd %.2f / filter %.2f / refine %.2f)\n",
              report.conjunctions.size(), report.colliding_pairs().size(),
              report.timings.total(), report.timings.allocation,
              report.timings.insertion, report.timings.detection,
              report.timings.filtering, report.timings.refinement);
  for (const Conjunction& c : report.conjunctions) {
    std::printf("  %6u %6u  tca=%10.2f s  pca=%8.4f km\n", c.sat_a, c.sat_b, c.tca,
                c.pca);
  }

  if (telemetry) {
    obs::set_enabled(false);
    std::printf("telemetry: %s\n", obs::snapshot().to_json().c_str());
  }

  const std::string csv_path = args.get_string("csv", "");
  if (!csv_path.empty()) {
    CsvWriter csv(csv_path, {"sat_a", "sat_b", "tca_s", "pca_km"});
    for (const Conjunction& c : report.conjunctions) {
      csv.add_row({std::to_string(c.sat_a), std::to_string(c.sat_b),
                   TextTable::num(c.tca, 4), TextTable::num(c.pca, 6)});
    }
    std::printf("written to %s\n", csv_path.c_str());
  }
  return 0;
}

int cmd_info() {
  const SystemInfo info = query_system_info();
  std::printf("scod 1.0.0\n");
  std::printf("host: %s, %s (%zu logical CPUs), %.1f GiB RAM\n", info.os.c_str(),
              info.cpu_name.c_str(), info.logical_cpus, info.memory_gib);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    if (command == "generate") return cmd_generate(argc - 1, argv + 1);
    if (command == "screen") return cmd_screen(argc - 1, argv + 1);
    if (command == "info") return cmd_info();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scod %s: %s\n", command.c_str(), e.what());
    return 1;
  }
  std::fprintf(stderr, "scod: unknown command '%s'\n", command.c_str());
  return usage();
}
