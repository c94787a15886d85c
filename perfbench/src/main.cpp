/// perfbench — the repository benchmark's measuring program. perfbench/run.py
/// builds it, supplies the reference event list and relays its output; see
/// perfbench/README.md for the workloads and metrics.
///
///   perfbench --workload grid_20k --seed 1 --seconds 10 --trace 0
///             --reference ref.txt --work-dir DIR [--trace-out trace.json]
///   perfbench --make-reference ref.txt --workload grid_20k --seed 1
///   perfbench --list-metrics
///
/// The last line of a measuring run is the result JSON object.

#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "check.hpp"
#include "metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "util/cli.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int list_metrics() {
  for (const MetricSpec& spec : metric_specs()) {
    std::printf("%s %s %s\n", spec.name, spec.unit,
                spec.per_layer ? "per_layer" : "end_to_end");
  }
  return 0;
}

int make_reference(const WorkloadSpec& spec, std::uint64_t seed, const std::string& path) {
  if (spec.kind != WorkloadKind::kScreen) {
    std::fprintf(stderr, "perfbench: %s checks against the service's own reference\n",
                 spec.name.c_str());
    return 2;
  }
  std::size_t rejected = 0;
  const auto events = build_reference(spec, make_catalog(spec, seed), rejected);
  char header[256];
  std::snprintf(header, sizeof header,
                "perfbench reference workload=%s seed=%llu n=%zu span_s=%g "
                "threshold_km=%g grid_sps=%g events=%zu unconfirmed=%zu",
                spec.name.c_str(), static_cast<unsigned long long>(seed), spec.n,
                spec.span_s, spec.threshold_km, spec.reference_sps, events.size(),
                rejected);
  write_reference(path, header, events);
  std::fprintf(stderr, "%s\n", header);
  return 0;
}

std::string join(const std::vector<double>& samples) {
  std::string out;
  char buf[32];
  for (const double s : samples) {
    std::snprintf(buf, sizeof buf, "%s%.4f", out.empty() ? "" : " ", s);
    out += buf;
  }
  return out;
}

int measure(const WorkloadSpec& spec, const RunOptions& options) {
  const RunResult run = run_workload(spec, options);
  const CheckResult& c = run.check;
  std::printf("workload %s seed %llu: %zu timed calls (%zu traced), %zu threads\n",
              spec.name.c_str(), static_cast<unsigned long long>(options.seed),
              run.timed_calls, run.traced_calls,
              scod::global_thread_pool().thread_count());
  std::printf("check: %zu events reported, %zu invalid, %zu of %zu reference events "
              "found, %zu missed, %zu with another PCA, %zu not in reference\n",
              c.reported, c.invalid, c.matched, c.reference, c.missed, c.pca_off, c.extra);
  if (!spec.misses_fail && c.missed > 0) {
    std::printf("check: %s misses are a known soundness gap of the variant; they "
                "lower recall and are not failed operations\n",
                spec.name.c_str());
  }
  for (const std::string& problem : c.problems) std::printf("  %s\n", problem.c_str());
  std::printf("samples [s]: set-up %s\n", join(run.setup_s).c_str());
  std::printf("samples [s]: untraced calls %s\n", join(run.call_s).c_str());
  const double error_rate = run.outcome.attempted > 0
                                ? static_cast<double>(run.outcome.failed) /
                                      static_cast<double>(run.outcome.attempted)
                                : 0.0;
  std::printf("  %-30s %16.6g %s\n", "error_rate", error_rate, "fraction");
  std::fputs(result_table(run.values, options.trace).c_str(), stdout);
  std::printf("%s\n", result_json(run.values, options.trace, run.outcome).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const scod::CliArgs args(argc, argv,
                           {"workload", "seed", "seconds", "trace", "reference",
                            "work-dir", "trace-out", "make-reference", "list-metrics"});
  if (!args.unknown().empty()) {
    std::fprintf(stderr, "perfbench: unknown option %s\n", args.unknown().front().c_str());
    return 2;
  }
  try {
    if (args.has("list-metrics")) return list_metrics();
    const std::string name = args.get_string("workload", "");
    const WorkloadSpec* spec = find_workload(name);
    if (spec == nullptr) {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n", name.c_str());
      return 2;
    }
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    if (args.has("make-reference")) {
      return make_reference(*spec, seed, args.get_string("make-reference", ""));
    }
    RunOptions options;
    options.seed = seed;
    options.seconds = args.get_double("seconds", 10.0);
    options.trace = args.get_int("trace", 0) != 0;
    options.reference_path = args.get_string("reference", "");
    options.work_dir = args.get_string("work-dir", ".");
    options.trace_path = args.get_string("trace-out", "");
    if (spec->kind == WorkloadKind::kScreen && options.reference_path.empty()) {
      std::fprintf(stderr, "perfbench: %s needs --reference\n", spec->name.c_str());
      return 2;
    }
    return measure(*spec, options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
