#pragma once

// Metric table and result printer of the benchmark, plus the resource
// probes (getrusage) it takes from outside the library.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One reported metric. End-to-end metrics come from untraced runs, the
/// per-layer ones from the traced run (--trace 1). BENCHMARK.json lists the
/// same names and units; run.py refuses a result that disagrees with it.
struct MetricSpec {
  const char* name;
  const char* unit;
  bool per_layer;
};

const std::vector<MetricSpec>& metric_specs();

/// Failure accounting of a run: operations attempted and failed.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

using MetricValues = std::map<std::string, double>;

/// The result line: {"correct", "attempted", "failed", "metrics"} with every
/// metric of the selected kind and its unit. Throws std::logic_error when a
/// metric of that kind has no value or a value that is not finite.
std::string result_json(const MetricValues& values, bool per_layer, const Outcome& outcome);

/// One "  name  value unit" line per metric of the selected kind.
std::string result_table(const MetricValues& values, bool per_layer);

double median(std::vector<double> samples);

/// Wall clock and process CPU time (user + system) at one instant.
struct ClockSample {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  static ClockSample now();
};

/// Process CPU seconds over wall seconds x threads between two samples.
double cpu_utilization(const ClockSample& begin, const ClockSample& end,
                       std::size_t threads);

/// High-water mark of the process's resident set [MiB].
double peak_rss_mib();

}  // namespace perfbench
