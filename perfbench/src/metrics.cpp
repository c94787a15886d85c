#include "metrics.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

const std::vector<MetricSpec>& metric_specs() {
  static const std::vector<MetricSpec> specs = {
      // End to end (untraced).
      {"screen_s", "s", false},
      {"setup_s", "s", false},
      {"peak_rss_mb", "MiB", false},
      {"recall", "fraction", false},
      // population
      {"population.load_s", "s", true},
      // core (run_grid_pipeline)
      {"core.alloc_s", "s", true},
      {"core.ins_s", "s", true},
      {"core.cd_s", "s", true},
      {"core.parallel_samples", "count", true},
      {"core.rounds", "count", true},
      {"core.grid_bytes", "bytes", true},
      {"core.pairs_tested", "count", true},
      {"core.pairs_prefiltered", "count", true},
      {"core.pairs_masked_clean", "count", true},
      {"core.candidates_emitted", "count", true},
      {"core.candidates_deduplicated", "count", true},
      {"core.candidate_bytes", "bytes", true},
      {"core.candidate_yield", "fraction", true},
      {"core.ins_ns_per_sample", "ns", true},
      // propagation
      {"propagation.samples", "count", true},
      // spatial (GridHashSet)
      {"spatial.inserts", "count", true},
      {"spatial.mean_probe_length", "steps", true},
      {"spatial.occupancy", "fraction", true},
      {"spatial.cas_retries", "count", true},
      {"spatial.pool_rejects", "count", true},
      {"spatial.cells_scanned", "count", true},
      {"spatial.cells_occupied", "count", true},
      {"spatial.occupied_ratio", "fraction", true},
      // filters
      {"filters.s", "s", true},
      {"filters.pairs_in", "count", true},
      {"filters.ap_rejects", "count", true},
      {"filters.path_rejects", "count", true},
      {"filters.window_rejects", "count", true},
      {"filters.coplanar_pairs", "count", true},
      {"filters.survivors", "count", true},
      {"filters.survivor_ratio", "fraction", true},
      // pca
      {"pca.s", "s", true},
      {"pca.refinements", "count", true},
      {"pca.brent_iterations", "count", true},
      {"pca.edge_discards", "count", true},
      {"pca.window_clamps", "count", true},
      {"pca.conjunctions_raw", "count", true},
      {"pca.yield", "fraction", true},
      // service
      {"service.upsert_s", "s", true},
      {"service.screen_s", "s", true},
      {"service.merge_s", "s", true},
      {"service.dirty", "count", true},
      {"service.carried", "count", true},
      {"service.evicted", "count", true},
      {"service.refreshed", "count", true},
      // parallel, obs
      {"parallel.cpu_util", "fraction", true},
      {"obs.overhead", "fraction", true},
  };
  return specs;
}

namespace {

double value_of(const MetricValues& values, const MetricSpec& spec) {
  const auto it = values.find(spec.name);
  if (it == values.end()) {
    throw std::logic_error(std::string("metric without a value: ") + spec.name);
  }
  if (!std::isfinite(it->second)) {
    throw std::logic_error(std::string("metric not finite: ") + spec.name);
  }
  return it->second;
}

}  // namespace

std::string result_json(const MetricValues& values, bool per_layer,
                        const Outcome& outcome) {
  std::string metrics;
  char buf[256];
  for (const MetricSpec& spec : metric_specs()) {
    if (spec.per_layer != per_layer) continue;
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", spec.name, value_of(values, spec),
                  spec.unit);
    metrics += buf;
  }
  std::snprintf(buf, sizeof buf,
                "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                outcome.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(outcome.attempted),
                static_cast<unsigned long long>(outcome.failed));
  return buf + metrics + "}}";
}

std::string result_table(const MetricValues& values, bool per_layer) {
  std::string out;
  char buf[256];
  for (const MetricSpec& spec : metric_specs()) {
    if (spec.per_layer != per_layer) continue;
    std::snprintf(buf, sizeof buf, "  %-30s %16.6g %s\n", spec.name,
                  value_of(values, spec), spec.unit);
    out += buf;
  }
  return out;
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                 : 0.5 * (samples[mid - 1] + samples[mid]);
}

ClockSample ClockSample::now() {
  ClockSample sample;
  sample.wall_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count();
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  sample.cpu_s = seconds(usage.ru_utime) + seconds(usage.ru_stime);
  return sample;
}

double cpu_utilization(const ClockSample& begin, const ClockSample& end,
                       std::size_t threads) {
  const double wall = end.wall_s - begin.wall_s;
  if (wall <= 0.0 || threads == 0) return 0.0;
  return (end.cpu_s - begin.cpu_s) / (wall * static_cast<double>(threads));
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace perfbench
