/// scod_fuzz — differential screening oracle: property-based cross-variant
/// fuzz harness with deterministic replay and shrinking.
///
///   scod_fuzz --runs 200 --seed 1              # fuzz fresh adversarial cases
///   scod_fuzz --case tests/corpus/foo.case     # replay one saved case
///   scod_fuzz --corpus tests/corpus            # replay the regression corpus
///   scod_fuzz --seed 7 --save-case out.case    # dump a generated case
///
/// Every case screens one adversarial catalog through every variant the
/// CLI accepts (grid, hybrid, legacy) — and through the incremental
/// service under a randomized delta — then diffs the conjunction sets
/// against a dense-scan oracle with paper-consistent tolerances. A
/// divergence is minimized by the shrinker and written as a replayable
/// .case file; the exit status is non-zero iff any divergence was found.
/// The final stdout line is a RunStats JSON object for CI trending.

#include <cstdio>
#include <string>
#include <vector>

#include "util/cli.hpp"
#include "verify/adversarial.hpp"
#include "verify/case_io.hpp"
#include "verify/differential.hpp"
#include "verify/shrink.hpp"

namespace {

using namespace scod;
using namespace scod::verify;

int usage() {
  std::fprintf(stderr,
               "usage: scod_fuzz [options]\n"
               "\n"
               "  --runs N          fuzz N generated cases (default 20)\n"
               "  --seed S          first generator seed (default 1)\n"
               "  --objects N       background population per case (default 24)\n"
               "  --per-regime N    engineered objects per regime (default 2)\n"
               "  --span S          screened span [s] (default 3600)\n"
               "  --threshold KM    screening threshold (default 5)\n"
               "  --sps S           sample period [s] (default 4)\n"
               "  --case FILE       replay one saved case instead of fuzzing\n"
               "  --corpus DIR      replay every *.case file in DIR\n"
               "  --save-case FILE  write the first generated case and exit\n"
               "  --out DIR         where shrunk failure cases land (default .)\n"
               "  --no-service      skip the incremental-service check\n"
               "  --no-counters     skip the telemetry funnel-invariant checks\n"
               "  --no-shrink      report divergences without minimizing\n"
               "\n"
               "exit status: 0 when every case agrees, 1 on any divergence.\n");
  return 2;
}

struct FuzzSettings {
  DifferentialOptions differential;
  bool shrink = true;
  std::string out_dir = ".";
};

void print_divergences(const std::string& label, const CaseResult& result) {
  std::fprintf(stderr, "FAIL %s: %zu divergence(s)\n", label.c_str(),
               result.divergences.size());
  for (const Divergence& d : result.divergences) {
    std::fprintf(stderr, "  [%s/%s] %s\n", d.screener.c_str(),
                 divergence_kind_name(d.kind), d.detail.c_str());
  }
}

/// Runs one case; on divergence shrinks it and writes the minimized
/// reproduction under settings.out_dir. Returns the case result.
CaseResult run_case(const FuzzCase& fuzz_case, const std::string& label,
                    const FuzzSettings& settings) {
  const CaseResult result = run_differential(fuzz_case, settings.differential);
  if (result.ok()) return result;

  print_divergences(label, result);
  FuzzCase repro = fuzz_case;
  if (settings.shrink) {
    const ShrinkResult shrunk = shrink_case(
        fuzz_case,
        [&](const FuzzCase& candidate) {
          return !run_differential(candidate, settings.differential).ok();
        });
    repro = shrunk.minimized;
    std::fprintf(stderr,
                 "  shrunk %zu -> %zu objects in %zu checks, span %.0f s\n",
                 shrunk.initial_objects, repro.size(), shrunk.checks,
                 repro.config.t_end - repro.config.t_begin);
  }
  const std::string path =
      settings.out_dir + "/fuzz-" + label + ".case";
  save_case(path, repro);
  std::fprintf(stderr, "  replay: scod_fuzz --case %s\n", path.c_str());
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv,
                     {"runs", "seed", "objects", "per-regime", "span",
                      "threshold", "sps", "case", "corpus", "save-case", "out",
                      "no-service", "no-counters", "no-shrink", "help"});
  if (args.has("help")) return usage();
  if (!args.unknown().empty()) {
    for (const std::string& opt : args.unknown()) {
      std::fprintf(stderr, "scod_fuzz: unknown option '%s'\n", opt.c_str());
    }
    return usage();
  }

  FuzzSettings settings;
  settings.shrink = !args.get_bool("no-shrink", false);
  settings.out_dir = args.get_string("out", ".");
  settings.differential.check_service = !args.get_bool("no-service", false);
  settings.differential.check_counters = !args.get_bool("no-counters", false);

  AdversarialConfig generator;
  generator.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  generator.background = static_cast<std::size_t>(args.get_int("objects", 24));
  generator.per_regime = static_cast<std::size_t>(args.get_int("per-regime", 2));
  generator.t_end = args.get_double("span", 3600.0);
  generator.threshold_km = args.get_double("threshold", 5.0);
  generator.seconds_per_sample = args.get_double("sps", 4.0);

  RunStats stats;
  try {
    const std::string save_path = args.get_string("save-case", "");
    if (!save_path.empty()) {
      save_case(save_path, generate_case(generator));
      std::printf("wrote case for seed %llu to %s\n",
                  static_cast<unsigned long long>(generator.seed),
                  save_path.c_str());
      return 0;
    }

    const std::string case_path = args.get_string("case", "");
    const std::string corpus_dir = args.get_string("corpus", "");
    if (!case_path.empty()) {
      stats.add(run_case(load_case(case_path), "replay", settings));
    } else if (!corpus_dir.empty()) {
      const auto paths = list_corpus(corpus_dir);
      if (paths.empty()) {
        std::fprintf(stderr, "scod_fuzz: no *.case files under %s\n",
                     corpus_dir.c_str());
        return 2;
      }
      for (const std::string& path : paths) {
        const std::string label =
            path.substr(path.find_last_of('/') + 1);
        stats.add(run_case(load_case(path), label, settings));
        std::fprintf(stderr, "corpus %s: %s\n", label.c_str(),
                     stats.divergences == 0 ? "ok" : "divergent");
      }
    } else {
      const auto runs = static_cast<std::uint64_t>(args.get_int("runs", 20));
      for (std::uint64_t r = 0; r < runs; ++r) {
        AdversarialConfig per_run = generator;
        per_run.seed = generator.seed + r;
        const FuzzCase fuzz_case = generate_case(per_run);
        stats.add(run_case(fuzz_case, "seed-" + std::to_string(per_run.seed),
                           settings));
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scod_fuzz: %s\n", e.what());
    return 2;
  }

  std::printf("%s\n", stats.to_json().c_str());
  return stats.divergences == 0 ? 0 : 1;
}
