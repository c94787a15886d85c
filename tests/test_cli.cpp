#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/screener.hpp"
#include "obs/telemetry.hpp"

#ifndef SCOD_CLI_PATH
#error "SCOD_CLI_PATH must be defined by the build"
#endif

namespace scod {
namespace {

/// Runs the CLI binary and captures stdout+stderr and the exit code.
struct CliRun {
  int exit_code = -1;
  std::string output;
};

CliRun run_cli(const std::string& args) {
  const std::string command = std::string(SCOD_CLI_PATH) + " " + args + " 2>&1";
  CliRun result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 4096> buffer;
  while (fgets(buffer.data(), buffer.size(), pipe) != nullptr) {
    result.output += buffer.data();
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

TEST(Cli, NoArgumentsPrintsUsage) {
  const CliRun run = run_cli("");
  EXPECT_EQ(run.exit_code, 2);
  EXPECT_NE(run.output.find("usage:"), std::string::npos);
}

TEST(Cli, UnknownCommandFails) {
  for (const char* command : {"frobnicate", "assess", "cube"}) {
    const CliRun run = run_cli(command);
    EXPECT_EQ(run.exit_code, 2) << command;
    EXPECT_NE(run.output.find("unknown command"), std::string::npos) << command;
  }
}

TEST(Cli, InfoReportsHost) {
  const CliRun run = run_cli("info");
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_NE(run.output.find("scod 1.0.0"), std::string::npos);
  EXPECT_NE(run.output.find("host:"), std::string::npos);
}

TEST(Cli, GenerateRequiresOut) {
  const CliRun run = run_cli("generate --count 10");
  EXPECT_EQ(run.exit_code, 2);
}

TEST(Cli, RejectsUnknownOptionsAndNegativeCount) {
  const std::string catalog = temp_path("cli_catalog_options.csv");
  const CliRun typo = run_cli("generate --count 10 --sed 3 --out " + catalog);
  EXPECT_EQ(typo.exit_code, 2) << typo.output;
  EXPECT_NE(typo.output.find("unknown option: --sed"), std::string::npos)
      << typo.output;

  const CliRun negative = run_cli("generate --count -5 --out " + catalog);
  EXPECT_EQ(negative.exit_code, 2) << negative.output;

  ASSERT_EQ(run_cli("generate --count 20 --out " + catalog).exit_code, 0);
  const CliRun screen = run_cli("screen --catalog " + catalog + " --treshold 50");
  EXPECT_EQ(screen.exit_code, 2) << screen.output;
  EXPECT_NE(screen.output.find("unknown option: --treshold"), std::string::npos)
      << screen.output;
  EXPECT_EQ(screen.output.find("screening of"), std::string::npos) << screen.output;
  std::remove(catalog.c_str());
}

TEST(Cli, GenerateScreenPipelineCsv) {
  const std::string catalog = temp_path("cli_catalog.csv");
  const std::string results = temp_path("cli_results.csv");

  const CliRun gen = run_cli("generate --count 300 --seed 11 --out " + catalog);
  ASSERT_EQ(gen.exit_code, 0) << gen.output;
  EXPECT_NE(gen.output.find("wrote 300 objects"), std::string::npos);

  const CliRun screen = run_cli("screen --catalog " + catalog +
                                " --variant hybrid --span 1800 --threshold 5 --csv " +
                                results);
  ASSERT_EQ(screen.exit_code, 0) << screen.output;
  EXPECT_NE(screen.output.find("hybrid screening of 300 objects"),
            std::string::npos);
  EXPECT_NE(screen.output.find("conjunctions"), std::string::npos);

  // The CSV must exist with the expected header.
  std::ifstream in(results);
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "sat_a,sat_b,tca_s,pca_km");

  std::remove(catalog.c_str());
  std::remove(results.c_str());
}

TEST(Cli, GenerateTleAndScreenWithJ2) {
  const std::string catalog = temp_path("cli_catalog.tle");
  const CliRun gen = run_cli("generate --count 100 --seed 3 --out " + catalog);
  ASSERT_EQ(gen.exit_code, 0) << gen.output;

  const CliRun screen = run_cli("screen --catalog " + catalog +
                                " --variant grid --span 1200 --propagator j2");
  ASSERT_EQ(screen.exit_code, 0) << screen.output;
  EXPECT_NE(screen.output.find("grid screening of 100 objects"), std::string::npos);

  // The TLE-secular propagator is only valid for TLE catalogs...
  const CliRun tle = run_cli("screen --catalog " + catalog +
                             " --variant grid --span 1200 --propagator tle");
  EXPECT_EQ(tle.exit_code, 0) << tle.output;
  std::remove(catalog.c_str());

  // ...and is rejected for CSV ones.
  const std::string csv_catalog = temp_path("cli_catalog_tleprop.csv");
  ASSERT_EQ(run_cli("generate --count 10 --out " + csv_catalog).exit_code, 0);
  EXPECT_EQ(run_cli("screen --catalog " + csv_catalog + " --propagator tle").exit_code,
            2);
  std::remove(csv_catalog.c_str());
}

TEST(Cli, FilterVariantsRefuseDriftingPropagators) {
  // hybrid and legacy read epoch elements, so only kepler propagation
  // suits them; grid screens with all four propagators.
  const std::string catalog = temp_path("cli_catalog_drift.tle");
  ASSERT_EQ(run_cli("generate --count 30 --seed 4 --out " + catalog).exit_code, 0);
  const std::string screen = "screen --catalog " + catalog + " --span 600";
  for (const char* variant : {"hybrid", "legacy"}) {
    for (const char* propagator : {"j2", "ephemeris", "tle"}) {
      const CliRun run = run_cli(screen + " --variant " + variant + " --propagator " +
                                 propagator);
      EXPECT_EQ(run.exit_code, 1) << variant << " " << propagator << ": " << run.output;
      EXPECT_NE(run.output.find("need two-body propagation"), std::string::npos)
          << run.output;
    }
    const CliRun kepler =
        run_cli(screen + " --variant " + variant + " --propagator kepler");
    EXPECT_EQ(kepler.exit_code, 0) << variant << ": " << kepler.output;
  }
  for (const char* propagator : {"kepler", "j2", "ephemeris", "tle"}) {
    const CliRun run = run_cli(screen + " --variant grid --propagator " + propagator);
    EXPECT_EQ(run.exit_code, 0) << propagator << ": " << run.output;
  }
  std::remove(catalog.c_str());
}

TEST(Cli, ScreenRejectsBadVariantAndPropagator) {
  const std::string catalog = temp_path("cli_catalog2.csv");
  ASSERT_EQ(run_cli("generate --count 20 --out " + catalog).exit_code, 0);
  EXPECT_EQ(run_cli("screen --catalog " + catalog + " --variant turbo").exit_code, 2);
  EXPECT_EQ(
      run_cli("screen --catalog " + catalog + " --propagator sgp9000").exit_code, 2);
  std::remove(catalog.c_str());
}

TEST(Cli, ScreenRejectsRemovedSieveVariant) {
  const std::string catalog = temp_path("cli_catalog_sieve.csv");
  ASSERT_EQ(run_cli("generate --count 20 --out " + catalog).exit_code, 0);
  const CliRun run = run_cli("screen --catalog " + catalog + " --variant sieve");
  EXPECT_EQ(run.exit_code, 2) << run.output;
  EXPECT_NE(run.output.find("unknown variant"), std::string::npos) << run.output;
  std::remove(catalog.c_str());
}

TEST(Cli, ScreenAcceptsEveryListedVariant) {
  const std::string catalog = temp_path("cli_catalog_variants.csv");
  ASSERT_EQ(run_cli("generate --count 60 --seed 5 --out " + catalog).exit_code, 0);
  for (const Variant v : kAllVariants) {
    const std::string variant = variant_name(v);
    const CliRun run = run_cli("screen --catalog " + catalog + " --variant " +
                               variant + " --span 600");
    EXPECT_EQ(run.exit_code, 0) << variant << ": " << run.output;
    EXPECT_NE(run.output.find(variant + " screening of 60 objects"), std::string::npos)
        << run.output;
  }
  std::remove(catalog.c_str());
}

TEST(Cli, ScreenRejectsInvertedSpanForEveryVariant) {
  const std::string catalog = temp_path("cli_catalog_span.csv");
  ASSERT_EQ(run_cli("generate --count 20 --out " + catalog).exit_code, 0);
  for (const Variant v : kAllVariants) {
    const std::string variant = variant_name(v);
    const CliRun run = run_cli("screen --catalog " + catalog + " --variant " +
                               variant + " --span -100");
    EXPECT_EQ(run.exit_code, 1) << variant << ": " << run.output;
    EXPECT_NE(run.output.find("empty time span"), std::string::npos) << variant;
  }
  std::remove(catalog.c_str());
}

TEST(Cli, ScreenRejectsInvalidThresholdAndSpan) {
  const std::string catalog = temp_path("cli_catalog_invalid.csv");
  ASSERT_EQ(run_cli("generate --count 20 --out " + catalog).exit_code, 0);
  for (const Variant v : kAllVariants) {
    const std::string variant = variant_name(v);
    for (const char* option : {"--threshold -1", "--threshold nan", "--span inf"}) {
      const CliRun run = run_cli("screen --catalog " + catalog + " --variant " +
                                 variant + " " + option);
      EXPECT_EQ(run.exit_code, 1) << variant << " " << option << ": " << run.output;
    }
  }
  // A finite span too long for legacy's dense scan is refused up front.
  const CliRun huge =
      run_cli("screen --catalog " + catalog + " --variant legacy --span 1e300");
  EXPECT_EQ(huge.exit_code, 1) << huge.output;
  std::remove(catalog.c_str());
}

TEST(Cli, ScreenFailsCleanlyOnMissingCatalog) {
  const CliRun run = run_cli("screen --catalog /nonexistent/cat.csv");
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.output.find("cannot open"), std::string::npos);
}


std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(Cli, ScreenRequiresCatalog) {
  const CliRun run = run_cli("screen --span 600");
  EXPECT_EQ(run.exit_code, 2) << run.output;
  EXPECT_NE(run.output.find("--catalog is required"), std::string::npos) << run.output;
}

TEST(Cli, GenerateIsDeterministicInSeed) {
  const std::string a = temp_path("cli_seed_a.csv");
  const std::string b = temp_path("cli_seed_b.csv");
  const std::string c = temp_path("cli_seed_c.csv");
  ASSERT_EQ(run_cli("generate --count 50 --seed 8 --out " + a).exit_code, 0);
  ASSERT_EQ(run_cli("generate --count 50 --seed 8 --out " + b).exit_code, 0);
  ASSERT_EQ(run_cli("generate --count 50 --seed 9 --out " + c).exit_code, 0);
  const std::string text = read_file(a);
  EXPECT_FALSE(text.empty());
  EXPECT_EQ(text, read_file(b));
  EXPECT_NE(text, read_file(c));
  for (const std::string& path : {a, b, c}) std::remove(path.c_str());
}

TEST(Cli, GenerateFailsOnUnwritablePath) {
  for (const char* out : {"/nonexistent_dir_scod/cat.csv", "/nonexistent_dir_scod/cat.tle"}) {
    const CliRun run = run_cli(std::string("generate --count 5 --out ") + out);
    EXPECT_EQ(run.exit_code, 1) << out << ": " << run.output;
    EXPECT_NE(run.output.find("cannot open"), std::string::npos) << run.output;
  }
}

TEST(Cli, EmptyCatalogScreensToNothing) {
  const std::string catalog = temp_path("cli_catalog_empty.csv");
  const CliRun gen = run_cli("generate --count 0 --out " + catalog);
  ASSERT_EQ(gen.exit_code, 0) << gen.output;
  EXPECT_NE(gen.output.find("wrote 0 objects"), std::string::npos);
  const CliRun screen = run_cli("screen --catalog " + catalog + " --span 600");
  EXPECT_EQ(screen.exit_code, 0) << screen.output;
  EXPECT_NE(screen.output.find("screening of 0 objects"), std::string::npos);
  EXPECT_NE(screen.output.find("0 conjunctions, 0 pairs"), std::string::npos);
  std::remove(catalog.c_str());
}

TEST(Cli, TxtCatalogIsReadAsTle) {
  // .txt is the second TLE extension: it is written as TLE sets and the
  // TLE-secular propagator accepts it.
  const std::string catalog = temp_path("cli_catalog_tle.txt");
  ASSERT_EQ(run_cli("generate --count 40 --seed 2 --out " + catalog).exit_code, 0);
  const std::string text = read_file(catalog);
  EXPECT_EQ(text.rfind("SYNTH-0\n1 ", 0), 0u) << text.substr(0, 80);
  const CliRun run =
      run_cli("screen --catalog " + catalog + " --propagator tle --span 600");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("grid screening of 40 objects"), std::string::npos);
  std::remove(catalog.c_str());
}

TEST(Cli, ScreenAcceptsEqualsFormOptions) {
  const std::string catalog = temp_path("cli_catalog_equals.csv");
  ASSERT_EQ(run_cli("generate --count 30 --out=" + catalog).exit_code, 0);
  const CliRun run =
      run_cli("screen --catalog=" + catalog + " --threshold=7.5 --span=900 --variant=hybrid");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("hybrid screening of 30 objects over 900 s (d = 7.50 km)"),
            std::string::npos)
      << run.output;
  std::remove(catalog.c_str());
}

TEST(Cli, ScreenCsvHasOneRowPerConjunction) {
  const std::string catalog = temp_path("cli_catalog_rows.csv");
  const std::string results = temp_path("cli_results_rows.csv");
  ASSERT_EQ(run_cli("generate --count 200 --seed 4 --out " + catalog).exit_code, 0);
  const CliRun run = run_cli("screen --catalog " + catalog +
                             " --span 600 --threshold 10 --csv " + results);
  ASSERT_EQ(run.exit_code, 0) << run.output;

  const std::size_t at = run.output.find(" conjunctions, ");
  ASSERT_NE(at, std::string::npos) << run.output;
  const std::size_t start = run.output.rfind(' ', at - 1) + 1;
  const std::size_t reported = std::stoul(run.output.substr(start, at - start));

  std::ifstream in(results);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "sat_a,sat_b,tca_s,pca_km");
  std::size_t rows = 0;
  while (std::getline(in, line)) {
    ++rows;
    const std::size_t c1 = line.find(',');
    ASSERT_NE(c1, std::string::npos) << line;
    const double pca = std::stod(line.substr(line.rfind(',') + 1));
    EXPECT_LE(pca, 10.0) << line;
    EXPECT_LT(std::stoul(line.substr(0, c1)), std::stoul(line.substr(c1 + 1))) << line;
  }
  EXPECT_EQ(rows, reported);
  std::remove(catalog.c_str());
  std::remove(results.c_str());
}

TEST(Cli, ScreenTelemetryFlagFollowsTheBuild) {
  const std::string catalog = temp_path("cli_catalog_telemetry.csv");
  ASSERT_EQ(run_cli("generate --count 50 --out " + catalog).exit_code, 0);
  const CliRun run = run_cli("screen --catalog " + catalog + " --span 600 --telemetry");
  if (obs::compiled()) {
    EXPECT_EQ(run.exit_code, 0) << run.output;
    EXPECT_NE(run.output.find("telemetry: {\"samples_propagated\": "), std::string::npos)
        << run.output;
  } else {
    EXPECT_EQ(run.exit_code, 2) << run.output;
    EXPECT_NE(run.output.find("SCOD_TELEMETRY=OFF"), std::string::npos) << run.output;
  }
  std::remove(catalog.c_str());
}

}  // namespace
}  // namespace scod
