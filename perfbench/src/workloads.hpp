#pragma once

// The benchmark's workloads and the code that runs one of them: inputs
// from the seed, repeated set-up, a timed loop of public-API calls, the
// output check after every call, and the metrics of the run.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "check.hpp"
#include "core/config.hpp"
#include "core/screener.hpp"
#include "metrics.hpp"
#include "orbit/elements.hpp"

namespace perfbench {

enum class WorkloadKind {
  kScreen,   ///< cold Screener::screen calls, as `scod screen` makes them
  kService,  ///< ScreeningService upsert + incremental screen epochs
};

struct WorkloadSpec {
  std::string name;
  WorkloadKind kind = WorkloadKind::kScreen;
  scod::Variant variant = scod::Variant::kGrid;  ///< screen workloads
  std::size_t n = 0;                             ///< catalog size
  double span_s = 7200.0;
  double threshold_km = 2.0;
  double sps = 4.0;            ///< s_ps of the screens under test [s]
  double reference_sps = 4.0;  ///< s_ps of the grid reference screen [s]
  /// A missed reference event is a failed operation. Off for a variant
  /// with a known soundness hole, whose misses are reported as recall.
  bool misses_fail = true;
};

const std::vector<WorkloadSpec>& workload_specs();
/// nullptr for an unknown name.
const WorkloadSpec* find_workload(std::string_view name);

scod::ScreeningConfig screening_config(const WorkloadSpec& spec);

/// The catalog of a workload: generate_population({n, seed}).
std::vector<scod::Satellite> make_catalog(const WorkloadSpec& spec, std::uint64_t seed);

/// Reference event list of a screen workload: a grid screen of `satellites`
/// at the workload's span and threshold with s_ps = reference_sps, each
/// event confirmed with scan_encounters. `rejected` counts unconfirmed
/// events, which are left out.
std::vector<scod::Conjunction> build_reference(const WorkloadSpec& spec,
                                               const std::vector<scod::Satellite>& satellites,
                                               std::size_t& rejected);

/// Builds the screener of each timed call; tests substitute faulty ones.
using ScreenerFactory = std::function<std::unique_ptr<scod::Screener>(const WorkloadSpec&)>;
ScreenerFactory default_screener_factory();

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measuring time; at least one call is always timed
  bool trace = false;
  std::string work_dir = ".";        ///< the catalog CSV is written here
  std::string reference_path;        ///< screen workloads
  std::string trace_path;            ///< Chrome trace output (traced runs)
};

struct RunResult {
  MetricValues values;
  Outcome outcome;
  CheckResult check;  ///< summed over every checked call
  std::size_t timed_calls = 0;
  std::size_t traced_calls = 0;
  std::vector<double> call_s;   ///< wall time of each untraced call
  std::vector<double> setup_s;  ///< wall time of one set-up, per sample
};

/// Runs one workload. End-to-end metrics are filled by every run, the
/// per-layer ones only with options.trace, where untraced and traced calls
/// alternate so obs.overhead compares the two within the run.
RunResult run_workload(const WorkloadSpec& spec, const RunOptions& options,
                       const ScreenerFactory& factory = default_screener_factory());

}  // namespace perfbench
