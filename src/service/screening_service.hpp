#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/report.hpp"
#include "service/catalog_store.hpp"

namespace scod {

/// A conjunction keyed by stable catalog ids instead of dense screener
/// indices. The service reports in id space because dense indices shift
/// whenever objects are added or removed between epochs, while ids are
/// what the baseline cache and the incremental merge reason about.
struct IdConjunction {
  std::uint32_t id_a = 0;  ///< smaller catalog id
  std::uint32_t id_b = 0;  ///< larger catalog id
  double tca = 0.0;        ///< time of closest approach [s past epoch]
  double pca = 0.0;        ///< distance at TCA [km]
};

/// How screen() decides between a full and an incremental pass.
enum class ScreenMode {
  kAuto,         ///< incremental when the dirty fraction is small enough
  kFull,         ///< always re-screen from scratch
  kIncremental,  ///< incremental whenever a baseline exists
};

/// Result of one service screening pass.
struct ServiceReport {
  std::uint64_t epoch = 0;       ///< store epoch this report describes
  bool incremental = false;      ///< served by the dirty-set path
  std::size_t catalog_size = 0;
  std::size_t dirty = 0;         ///< objects added/updated since baseline
  std::size_t removed = 0;       ///< objects removed since baseline
  std::size_t carried = 0;       ///< baseline conjunctions kept as-is
  std::size_t evicted = 0;       ///< baseline conjunctions dropped as stale
  std::size_t refreshed = 0;     ///< conjunctions recomputed this pass
  /// Complete conjunction set of the epoch, sorted by (id_a, id_b, tca) —
  /// identical to what a from-scratch screen of the snapshot reports.
  std::vector<IdConjunction> conjunctions;
  PhaseTimings timings;          ///< underlying pipeline phases (zero when
                                 ///< the pass was served from cache)
  ScreeningStats stats;          ///< underlying pipeline counters
  double merge_seconds = 0.0;    ///< baseline merge/eviction time
  double total_seconds = 0.0;    ///< wall clock of the whole screen() call
};

/// Cumulative service counters (ServiceStats of the design docs).
struct ServiceStats {
  std::uint64_t ingests = 0;              ///< bulk file ingests
  std::uint64_t upserts = 0;              ///< objects added or updated
  std::uint64_t removals = 0;             ///< objects removed
  std::uint64_t full_screens = 0;
  std::uint64_t incremental_screens = 0;
  std::uint64_t cached_screens = 0;       ///< no delta: baseline returned
  std::uint64_t last_epoch_screened = 0;
  std::size_t last_dirty = 0;
  std::size_t last_removed = 0;
  PhaseTimings last_timings;              ///< pipeline phases of last screen
  double last_merge_seconds = 0.0;
  double last_screen_seconds = 0.0;
  double total_screen_seconds = 0.0;
};

/// Configuration of a ScreeningService.
struct ServiceOptions {
  /// Screening window and threshold shared by every pass. The service pins
  /// seconds_per_sample at construction (defaulting it when unset) so the
  /// grid geometry — and therefore per-pair refinement — is identical
  /// across epochs regardless of how the population size drifts; that
  /// invariance is what makes the baseline merge exact.
  /// config.device must be unset: the masked pass runs on the CPU only.
  ScreeningConfig config;
};

/// Auto mode runs a full screen when dirty/n exceeds this fraction; at high
/// churn the eviction savings no longer pay for the merge.
inline constexpr double kFullRescreenFraction = 0.25;

/// Long-lived conjunction-screening service: owns a versioned catalog and
/// keeps the last full ConjunctionReport as a warm baseline.
///
/// After a delta touching k of n objects, screen() re-screens only pairs
/// with at least one dirty member (the k dirty objects are registered in
/// the 27 cells around them and every object looks up its own cell, so
/// dirty-vs-clean candidates are found exactly as in a full pass; see
/// GridPipelineOptions::dirty_mask) and merges with the baseline by
/// evicting pairs whose members changed. When the masked pass does not fit
/// the memory budget, the pass is a full screen instead; a CPU screen never
/// changes the pinned sample period, so every pass shares the baseline's
/// grid geometry. The merged report is identical to
/// a from-scratch screen of the same snapshot: a pair's conjunctions
/// depend only on the two orbits and the fixed config, so clean-clean
/// pairs carry over verbatim and everything else is recomputed.
///
/// Mutators and screen() are intended for one driver thread; concurrent
/// readers may snapshot the store at any time.
class ScreeningService {
 public:
  /// Throws std::invalid_argument when options.config.device is set.
  explicit ScreeningService(ServiceOptions options = {});

  CatalogStore& store() { return store_; }
  const CatalogStore& store() const { return store_; }
  const ServiceOptions& options() const { return options_; }
  const ServiceStats& stats() const { return stats_; }

  /// Convenience mutators forwarding to the store, with service counters.
  std::size_t ingest_csv(const std::string& path);
  std::size_t ingest_tle(const std::string& path);
  void upsert(const Satellite& satellite);
  void upsert(std::span<const Satellite> batch);
  bool remove(std::uint32_t id);

  /// Screens the current snapshot and refreshes the warm baseline. With no
  /// delta since the last pass the cached report is returned directly.
  ServiceReport screen(ScreenMode mode = ScreenMode::kAuto);

  /// Delta-equivalence reference: a from-scratch screen of the current
  /// snapshot with the service's pinned config, in id space, WITHOUT
  /// touching the warm baseline, counters, or stats. The incremental path
  /// is documented to reproduce this exactly; the verify subsystem (and
  /// test_service) diff screen()'s merged report against it.
  std::vector<IdConjunction> reference_conjunctions() const;

 private:
  ServiceReport full_screen(std::shared_ptr<const CatalogSnapshot> snap);
  ServiceReport incremental_screen(std::shared_ptr<const CatalogSnapshot> snap,
                                   const std::vector<std::uint32_t>& dirty_ids,
                                   const std::vector<std::uint32_t>& removed_ids);
  void adopt_baseline(std::shared_ptr<const CatalogSnapshot> snap,
                      const ServiceReport& report);

  ServiceOptions options_;
  CatalogStore store_;
  ServiceStats stats_;

  // Warm baseline: the conjunction set of `baseline_epoch_`, in id space.
  bool has_baseline_ = false;
  std::uint64_t baseline_epoch_ = 0;
  std::vector<IdConjunction> baseline_conjunctions_;
};

}  // namespace scod
