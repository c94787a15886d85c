#pragma once

/// Shared plumbing for the experiment-harness binaries (bench_*): default
/// workload parameters scaled so each binary finishes in minutes on a
/// laptop, CLI overrides, and run helpers.
///
/// The paper's absolute numbers came from a Ryzen 5950X / dual Xeon 9242 /
/// RTX 3090 testbed; these harnesses reproduce the *experiments* — the
/// same sweeps, the same reported rows — so the qualitative shape (who
/// wins, how variants scale, where memory pressure bites) is reproducible
/// anywhere. See EXPERIMENTS.md for paper-vs-measured notes.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/screen.hpp"
#include "obs/telemetry.hpp"
#include "population/generator.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace scod::bench {

/// Options shared by the experiment harnesses.
struct HarnessOptions {
  std::vector<std::int64_t> sizes{1000, 2000, 4000};
  std::int64_t legacy_max = 4000;    ///< largest population the legacy runs on
  double span = 3600.0;              ///< screened time span [s]
  double threshold = 2.0;            ///< screening threshold d [km]
  double sps_grid = 4.0;             ///< grid-variant sampling period [s]
  double sps_hybrid = 16.0;          ///< hybrid-variant sampling period [s]
  std::int64_t repeats = 1;          ///< timing repetitions (median reported)
  std::uint64_t seed = 42;
  std::string csv;                   ///< optional machine-readable output path
  std::string json;                  ///< optional JSON records output path
  bool device = true;                ///< also run the devicesim backend
  bool telemetry = false;            ///< collect src/obs counters per cell
};

inline HarnessOptions parse_harness_options(int argc, const char* const* argv) {
  const CliArgs args(argc, argv,
                     {"sizes", "legacy-max", "span", "threshold", "sps-grid",
                      "sps-hybrid", "repeats", "seed", "csv", "json", "device",
                      "threads", "telemetry"});
  if (!args.unknown().empty()) {
    std::fprintf(stderr, "unknown option: %s\n", args.unknown().front().c_str());
    std::fprintf(stderr,
                 "known: --sizes a,b,c --legacy-max N --span S --threshold D "
                 "--sps-grid S --sps-hybrid S --repeats R --seed S --csv PATH "
                 "--json PATH --device 0|1 --telemetry 0|1\n");
    std::exit(2);
  }
  HarnessOptions opt;
  opt.sizes = args.get_int_list("sizes", opt.sizes);
  opt.legacy_max = args.get_int("legacy-max", opt.legacy_max);
  opt.span = args.get_double("span", opt.span);
  opt.threshold = args.get_double("threshold", opt.threshold);
  opt.sps_grid = args.get_double("sps-grid", opt.sps_grid);
  opt.sps_hybrid = args.get_double("sps-hybrid", opt.sps_hybrid);
  opt.repeats = args.get_int("repeats", opt.repeats);
  opt.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  opt.csv = args.get_string("csv", "");
  opt.json = args.get_string("json", "");
  opt.device = args.get_bool("device", opt.device);
  opt.telemetry = args.get_bool("telemetry", false);
  if (opt.telemetry && !obs::compiled()) {
    std::fprintf(stderr,
                 "--telemetry requested but this build has SCOD_TELEMETRY=OFF\n");
    std::exit(2);
  }
  if (opt.telemetry) obs::set_enabled(true);
  return opt;
}

/// Streams bench records as a JSON array of flat objects, one per measured
/// (workload, n, variant) cell:
///   {"workload": ..., "n": ..., "variant": ..., "seconds": ..., "conjunctions": ...}
/// Committed snapshots follow the BENCH_<tag>.json convention at the repo
/// root (e.g. BENCH_pr1.json), so regressions show up in review diffs.
/// Destruction closes the array; with an empty path the writer is inert.
class JsonBenchWriter {
 public:
  explicit JsonBenchWriter(const std::string& path) {
    if (path.empty()) return;
    out_.open(path);
    if (!out_) {
      std::fprintf(stderr, "cannot open JSON output: %s\n", path.c_str());
      std::exit(2);
    }
    out_ << "[\n";
  }

  ~JsonBenchWriter() {
    if (out_.is_open()) out_ << "\n]\n";
  }

  JsonBenchWriter(const JsonBenchWriter&) = delete;
  JsonBenchWriter& operator=(const JsonBenchWriter&) = delete;

  void record(const std::string& workload, std::uint64_t n,
              const std::string& variant, double seconds,
              std::uint64_t conjunctions,
              const std::string& telemetry_json = "") {
    if (!out_.is_open()) return;
    if (!first_) out_ << ",\n";
    first_ = false;
    out_ << "  {\"workload\": \"" << workload << "\", \"n\": " << n
         << ", \"variant\": \"" << variant << "\", \"seconds\": " << seconds
         << ", \"conjunctions\": " << conjunctions;
    if (!telemetry_json.empty()) out_ << ", \"telemetry\": " << telemetry_json;
    out_ << "}";
    out_.flush();
  }

 private:
  std::ofstream out_;
  bool first_ = true;
};

inline ScreeningConfig make_config(const HarnessOptions& opt) {
  ScreeningConfig cfg;
  cfg.threshold_km = opt.threshold;
  cfg.t_begin = 0.0;
  cfg.t_end = opt.span;
  return cfg;
}

inline void print_banner(const std::string& title, const std::string& paper_ref) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("reproduces: %s\n\n", paper_ref.c_str());
}

/// Median wall-clock seconds of `repeats` runs of `fn`.
template <typename Fn>
double median_seconds(Fn&& fn, std::int64_t repeats) {
  std::vector<double> times;
  for (std::int64_t r = 0; r < std::max<std::int64_t>(repeats, 1); ++r) {
    Stopwatch watch;
    fn();
    times.push_back(watch.seconds());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

}  // namespace scod::bench
