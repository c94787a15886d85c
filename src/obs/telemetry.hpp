#pragma once

// Low-overhead screening telemetry: per-thread, cache-line-padded counter
// blocks that are only touched on the owning thread and summed when a
// snapshot is requested. Two gates keep the cost in check:
//
//   * compile time — building with -DSCOD_TELEMETRY=OFF defines
//     SCOD_TELEMETRY_ENABLED=0 and every count()/timer call below collapses
//     to an empty inline function, so instrumented call sites carry no code
//     at all in stripped builds;
//   * run time — with telemetry compiled in, counting is off by default and
//     each call site pays a single relaxed atomic load + predictable branch
//     until set_enabled(true).
//
// Counter writes are relaxed load+store (not lock-prefixed RMW): each block
// is written only by its owning thread, so plain increments are race-free,
// and the atomic type only makes the concurrent snapshot reads well-defined.

#ifndef SCOD_TELEMETRY_ENABLED
#define SCOD_TELEMETRY_ENABLED 1
#endif

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#if SCOD_TELEMETRY_ENABLED
#include <atomic>
#endif

namespace scod::obs {

enum class Counter : std::uint32_t {
  // Insertion phase: GridHashSet internals (a cell list's inserts take no
  // probe step and no CAS).
  kSamplesPropagated,
  kGridInserts,
  kGridProbeSteps,
  kGridCasRetries,
  kGridPoolRejects,
  // Detection funnel (grid pipeline).
  kCellsScanned,
  kCellsOccupied,
  kPairsTested,
  kPairsMaskedClean,
  kPairsPrefiltered,
  kPairsReachRejected,
  kCandidatesEmitted,
  // Always 0: the half-stencil scan emits each (pair, step) once and the
  // candidate storage does not deduplicate. Kept for its readers.
  kCandidatesDeduplicated,
  // devicesim only: the CPU workers' key lists never fill.
  kCandidateSetGrowths,
  // Classical filter chain (hybrid / legacy front end).
  kFilterPairsIn,
  kFilterApogeePerigeeRejects,
  kFilterPathChecks,
  kFilterPathRejects,
  kFilterWindowChecks,
  kFilterWindowRejects,
  kFilterCoplanarPairs,
  kFilterSurvivors,
  // Refinement.
  kRefinements,
  kBrentIterations,
  kWindowClamps,
  kEdgeDiscards,
  kConjunctionsRaw,
  kConjunctionsReported,
  // Incremental screening service.
  kServiceFullScreens,
  kServiceIncrementalScreens,
  kServiceCachedScreens,
  kServiceSnapshotObjects,
  kServiceDirtyObjects,
  kServiceRemovedObjects,
  kServiceCarried,
  kServiceEvicted,
  kServiceRefreshed,
  // Stage timers, accumulated in nanoseconds.
  kTimeInsertionNs,
  kTimeDetectionNs,
  kTimeFilteringNs,
  kTimeRefinementNs,
  kCounterCount_,  // sentinel, keep last
};

inline constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(Counter::kCounterCount_);

// Probe-length histogram buckets: exact counts for 0..6 probe steps per
// insert, with everything >= 7 collapsed into the final bucket.
inline constexpr std::size_t kProbeHistogramBuckets = 8;

const char* counter_name(Counter c);

struct TelemetrySnapshot {
  std::array<std::uint64_t, kCounterCount> counters{};
  std::array<std::uint64_t, kProbeHistogramBuckets> probe_histogram{};

  std::uint64_t value(Counter c) const {
    return counters[static_cast<std::size_t>(c)];
  }
  // cells_occupied / cells_scanned. On the CPU's cell list: occupied cells
  // (runs of equal cell keys) per sample, at most 1 and near 1 when most
  // samples sit alone in their cell. On devicesim's hash grid: the share of
  // slots that held a sample, near or below 0.5 with the 2x slot factor.
  // On a masked screen: the share of home-cell lookups that found a dirty
  // object.
  double occupancy() const;
  // Mean linear-probe steps per successful insert.
  double mean_probe_length() const;
  std::string to_json() const;
};

// True when the library was built with telemetry support compiled in.
constexpr bool compiled() { return SCOD_TELEMETRY_ENABLED != 0; }

#if SCOD_TELEMETRY_ENABLED

namespace detail {

struct alignas(64) ThreadBlock {
  std::array<std::atomic<std::uint64_t>, kCounterCount> counters{};
  std::array<std::atomic<std::uint64_t>, kProbeHistogramBuckets> probes{};

  void bump(std::size_t index, std::uint64_t n) {
    auto& c = counters[index];
    c.store(c.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
  }
};

ThreadBlock& local_block();
extern std::atomic<bool> g_enabled;

}  // namespace detail

inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on);
void reset();
TelemetrySnapshot snapshot();

inline void count(Counter c, std::uint64_t n = 1) {
  if (!enabled()) return;
  detail::local_block().bump(static_cast<std::size_t>(c), n);
}

// One call per GridHashSet::insert: bundles the insert count, total probe
// steps, histogram bucket, and CAS retries into a single enabled() check.
inline void count_grid_insert(std::uint64_t probe_steps,
                              std::uint64_t cas_retries) {
  if (!enabled()) return;
  detail::ThreadBlock& block = detail::local_block();
  block.bump(static_cast<std::size_t>(Counter::kGridInserts), 1);
  if (probe_steps != 0)
    block.bump(static_cast<std::size_t>(Counter::kGridProbeSteps), probe_steps);
  if (cas_retries != 0)
    block.bump(static_cast<std::size_t>(Counter::kGridCasRetries), cas_retries);
  const std::size_t bucket =
      probe_steps < kProbeHistogramBuckets - 1 ? static_cast<std::size_t>(probe_steps)
                                               : kProbeHistogramBuckets - 1;
  auto& h = block.probes[bucket];
  h.store(h.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}

// `n` inserts that took no probe step: a cell list registers a step's
// samples by sorting them. Counts them as inserts in histogram bucket 0,
// so the histogram still sums to the inserts.
inline void count_unprobed_inserts(std::uint64_t n) {
  if (!enabled()) return;
  detail::ThreadBlock& block = detail::local_block();
  block.bump(static_cast<std::size_t>(Counter::kGridInserts), n);
  auto& h = block.probes[0];
  h.store(h.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
}

inline void add_seconds(Counter c, double seconds) {
  if (!enabled()) return;
  if (seconds < 0.0) return;
  count(c, static_cast<std::uint64_t>(seconds * 1e9));
}

#else  // !SCOD_TELEMETRY_ENABLED

inline constexpr bool enabled() { return false; }
inline void set_enabled(bool) {}
inline void reset() {}
inline TelemetrySnapshot snapshot() { return {}; }
inline void count(Counter, std::uint64_t = 1) {}
inline void count_grid_insert(std::uint64_t, std::uint64_t) {}
inline void count_unprobed_inserts(std::uint64_t) {}
inline void add_seconds(Counter, double) {}

#endif  // SCOD_TELEMETRY_ENABLED

}  // namespace scod::obs
