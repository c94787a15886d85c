// Self-test of the benchmark: the output check must flag a dropped
// reference event, a perturbed PCA and a screen that throws, and the printer
// must emit every metric with its unit for every workload in both modes.
// Runs scaled-down copies of the workloads; exits 1 on any failure.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "check.hpp"
#include "metrics.hpp"
#include "population/catalog_io.hpp"
#include "propagation/contour_solver.hpp"
#include "propagation/two_body.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using scod::Conjunction;

int g_failures = 0;

#define EXPECT(cond)                                                      \
  do {                                                                    \
    if (!(cond)) {                                                        \
      ++g_failures;                                                       \
      std::printf("FAILED %s:%d: %s\n", __FILE__, __LINE__, #cond);       \
    }                                                                     \
  } while (0)

/// A copy of `name` small enough to run in well under a second.
WorkloadSpec small(const std::string& name) {
  WorkloadSpec spec = *find_workload(name);
  spec.n = spec.kind == WorkloadKind::kService ? 1500 : 2000;
  spec.span_s = 900.0;
  spec.threshold_km = 10.0;
  spec.sps = 16.0;
  spec.reference_sps = 16.0;
  return spec;
}

std::string work_dir() {
  const std::filesystem::path dir = std::filesystem::current_path() / "perfbench_test_work";
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::string write_reference_for(const WorkloadSpec& spec, std::uint64_t seed) {
  std::size_t rejected = 0;
  const auto events = build_reference(spec, make_catalog(spec, seed), rejected);
  EXPECT(rejected == 0);
  const std::string path = work_dir() + "/" + spec.name + ".ref";
  write_reference(path, "test reference", events);
  return path;
}

/// Wraps the real screener of a workload and edits its report.
class EditingScreener final : public scod::Screener {
 public:
  using Edit = std::function<void(scod::ScreeningReport&)>;
  EditingScreener(std::unique_ptr<scod::Screener> inner, Edit edit)
      : inner_(std::move(inner)), edit_(std::move(edit)) {}
  scod::Variant variant() const override { return inner_->variant(); }
  scod::ScreeningReport screen(std::span<const scod::Satellite> satellites,
                               const scod::ScreeningConfig& config) const override {
    scod::ScreeningReport report = inner_->screen(satellites, config);
    edit_(report);
    return report;
  }
  scod::ScreeningReport screen(const scod::Propagator& propagator,
                               const scod::ScreeningConfig& config) const override {
    scod::ScreeningReport report = inner_->screen(propagator, config);
    edit_(report);
    return report;
  }

 private:
  std::unique_ptr<scod::Screener> inner_;
  Edit edit_;
};

ScreenerFactory editing_factory(EditingScreener::Edit edit) {
  return [edit](const WorkloadSpec& spec) -> std::unique_ptr<scod::Screener> {
    return std::make_unique<EditingScreener>(scod::make_screener(spec.variant), edit);
  };
}

/// Index of the first event outside the exempt band, or the size.
std::size_t first_checked(const std::vector<Conjunction>& events, double threshold) {
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (std::abs(events[i].pca - threshold) >= 0.05) return i;
  }
  return events.size();
}

void test_check_functions() {
  const WorkloadSpec spec = small("grid_wide_20k");
  const auto catalog = make_catalog(spec, 3);
  std::size_t rejected = 0;
  const auto reference = build_reference(spec, catalog, rejected);
  EXPECT(rejected == 0);
  EXPECT(reference.size() >= 3);

  const scod::ScreeningConfig config = screening_config(spec);
  const CheckSettings settings = check_settings(config);
  const scod::ContourKeplerSolver solver;
  const scod::TwoBodyPropagator propagator(catalog, solver);
  const auto report = scod::make_screener(spec.variant)->screen(catalog, config).conjunctions;

  CheckResult clean;
  validate_events(report, propagator, settings, clean);
  match_reference(report, reference, settings, true, clean);
  EXPECT(clean.invalid == 0);
  EXPECT(clean.missed == 0);
  EXPECT(clean.pca_off == 0);
  EXPECT(clean.extra == 0);
  EXPECT(clean.matched == clean.reference);

  const std::size_t victim = first_checked(report, spec.threshold_km);
  EXPECT(victim < report.size());
  if (victim >= report.size()) return;

  std::vector<Conjunction> dropped = report;
  dropped.erase(dropped.begin() + static_cast<std::ptrdiff_t>(victim));
  CheckResult miss;
  validate_events(dropped, propagator, settings, miss);
  match_reference(dropped, reference, settings, false, miss);
  EXPECT(miss.invalid == 0);
  EXPECT(miss.missed == 1);

  std::vector<Conjunction> perturbed = report;
  perturbed[victim].pca = std::max(0.0, perturbed[victim].pca - 0.01);
  CheckResult bad_pca;
  validate_events(perturbed, propagator, settings, bad_pca);
  EXPECT(bad_pca.invalid == 1);

  // An event moved off its minimum, its PCA recomputed at the new TCA: it
  // validates on its own, so only the comparison with the reference PCA can
  // catch it. The shift is the longest that keeps the event under d.
  std::vector<Conjunction> moved = report;
  bool shifted = false;
  for (std::size_t i = victim; i < report.size() && !shifted; ++i) {
    if (std::abs(report[i].pca - spec.threshold_km) < 0.05) continue;
    for (const double dt : {1.0, 0.5, 0.25, 0.1, 0.05, 0.02}) {
      Conjunction c = report[i];
      c.tca = std::min(c.tca + dt, settings.t_end);
      c.pca = propagator.distance(c.sat_a, c.sat_b, c.tca);
      if (c.pca <= spec.threshold_km && std::abs(c.pca - report[i].pca) > 0.01) {
        moved[i] = c;
        shifted = true;
        break;
      }
    }
  }
  EXPECT(shifted);
  CheckResult off;
  validate_events(moved, propagator, settings, off);
  match_reference(moved, reference, settings, false, off);
  EXPECT(off.invalid == 0);
  EXPECT(off.missed == 0);
  EXPECT(off.pca_off == 1);
  EXPECT(off.matched + 1 == off.reference);

  std::vector<Conjunction> duplicated = report;
  duplicated.insert(duplicated.begin() + static_cast<std::ptrdiff_t>(victim),
                    report[victim]);
  CheckResult dup;
  validate_events(duplicated, propagator, settings, dup);
  EXPECT(dup.invalid == 1);

  // Reference file round trip.
  const std::string path = work_dir() + "/roundtrip.ref";
  write_reference(path, "round trip", reference);
  const auto back = read_reference(path);
  EXPECT(back.size() == reference.size());
  CheckResult round;
  match_reference(back, reference, settings, true, round);
  EXPECT(round.missed == 0 && round.extra == 0);
}

RunOptions quick_options(const WorkloadSpec& spec, bool trace) {
  RunOptions options;
  options.seed = 3;
  options.seconds = 0.0;
  options.trace = trace;
  options.work_dir = work_dir();
  if (spec.kind == WorkloadKind::kScreen) {
    options.reference_path = write_reference_for(spec, options.seed);
  }
  if (trace) options.trace_path = work_dir() + "/" + spec.name + ".trace.json";
  return options;
}

void test_run_flags_faulty_screeners() {
  const WorkloadSpec spec = small("grid_wide_20k");
  const RunOptions options = quick_options(spec, false);

  const RunResult good = run_workload(spec, options);
  EXPECT(good.outcome.failed == 0);
  EXPECT(good.outcome.attempted > good.timed_calls);
  EXPECT(good.values.at("recall") == 1.0);

  const RunResult throws = run_workload(
      spec, options, editing_factory([](scod::ScreeningReport&) {
        throw std::runtime_error("injected screen failure");
      }));
  EXPECT(throws.outcome.failed >= 1);
  EXPECT(result_json(throws.values, false, throws.outcome).find("\"correct\": false") !=
         std::string::npos);

  const double threshold = spec.threshold_km;
  const RunResult drops = run_workload(
      spec, options, editing_factory([threshold](scod::ScreeningReport& report) {
        const std::size_t i = first_checked(report.conjunctions, threshold);
        if (i < report.conjunctions.size()) {
          report.conjunctions.erase(report.conjunctions.begin() +
                                    static_cast<std::ptrdiff_t>(i));
        }
      }));
  EXPECT(drops.outcome.failed == drops.timed_calls);
  EXPECT(drops.values.at("recall") < 1.0);

  const RunResult perturbs = run_workload(
      spec, options, editing_factory([](scod::ScreeningReport& report) {
        if (!report.conjunctions.empty()) report.conjunctions.back().pca *= 0.9;
      }));
  EXPECT(perturbs.check.invalid == perturbs.timed_calls);
  EXPECT(perturbs.outcome.failed >= perturbs.timed_calls);
}

/// Every metric of the mode appears once with its unit, no other one does.
void expect_printed(const std::string& json, bool per_layer) {
  for (const MetricSpec& spec : metric_specs()) {
    const std::string key = std::string("\"") + spec.name + "\": {\"value\": ";
    const std::size_t at = json.find(key);
    if (spec.per_layer != per_layer) {
      EXPECT(at == std::string::npos);
      continue;
    }
    EXPECT(at != std::string::npos);
    if (at == std::string::npos) continue;
    const std::string unit = std::string("\"unit\": \"") + spec.unit + "\"}";
    const std::size_t close = json.find('}', at);
    EXPECT(json.find(unit, at) != std::string::npos &&
           json.find(unit, at) + unit.size() - 1 == close);
    EXPECT(json.find(key, at + 1) == std::string::npos);
  }
}

void test_printer_every_workload() {
  for (const WorkloadSpec& full : workload_specs()) {
    const WorkloadSpec spec = small(full.name);
    for (const bool trace : {false, true}) {
      const RunOptions options = quick_options(spec, trace);
      const RunResult run = run_workload(spec, options);
      EXPECT(run.outcome.failed == 0);
      EXPECT(run.timed_calls >= (trace ? 2u : 1u));
      const std::string json = result_json(run.values, trace, run.outcome);
      std::printf("%s trace=%d: %s\n", spec.name.c_str(), trace ? 1 : 0, json.c_str());
      EXPECT(json.rfind("{\"correct\": true, \"attempted\": ", 0) == 0);
      expect_printed(json, trace);
      if (trace) {
        EXPECT(std::filesystem::file_size(options.trace_path) > 0);
        EXPECT(run.values.at("pca.refinements") > 0.0);
        EXPECT(run.values.at("core.pairs_tested") > 0.0);
        EXPECT(run.values.at("parallel.cpu_util") > 0.0);
        if (full.kind == WorkloadKind::kService) {
          EXPECT(run.values.at("service.dirty") > 0.0);
        }
        if (full.variant == scod::Variant::kHybrid && full.kind == WorkloadKind::kScreen) {
          EXPECT(run.values.at("filters.pairs_in") > 0.0);
        }
      }
    }
  }
  bool threw = false;
  try {
    result_json({}, false, {});
  } catch (const std::logic_error&) {
    threw = true;
  }
  EXPECT(threw);
}

}  // namespace

int main() {
  test_check_functions();
  test_run_flags_faulty_screeners();
  test_printer_every_workload();
  std::printf("%s (%d failure%s)\n", g_failures == 0 ? "PASSED" : "FAILED", g_failures,
              g_failures == 1 ? "" : "s");
  return g_failures == 0 ? 0 : 1;
}
