#include "service/screening_service.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "core/grid_screener.hpp"
#include "core/screener.hpp"
#include "obs/telemetry.hpp"
#include "util/stopwatch.hpp"

namespace scod {

namespace {

bool id_order(const IdConjunction& x, const IdConjunction& y) {
  if (x.id_a != y.id_a) return x.id_a < y.id_a;
  if (x.id_b != y.id_b) return x.id_b < y.id_b;
  return x.tca < y.tca;
}

/// Maps a dense-index report onto stable catalog ids. Dense indices are
/// id-sorted, so sat_a < sat_b already implies id_a < id_b.
std::vector<IdConjunction> to_id_space(const std::vector<Conjunction>& conjunctions,
                                       const CatalogSnapshot& snap) {
  std::vector<IdConjunction> out;
  out.reserve(conjunctions.size());
  for (const Conjunction& c : conjunctions) {
    out.push_back({snap.satellites[c.sat_a].id, snap.satellites[c.sat_b].id,
                   c.tca, c.pca});
  }
  std::sort(out.begin(), out.end(), id_order);
  return out;
}

}  // namespace

ScreeningService::ScreeningService(ServiceOptions options)
    : options_(std::move(options)) {
  if (options_.config.device != nullptr) {
    throw std::invalid_argument("ScreeningService: the masked pass runs on the CPU only");
  }
  // Pin the sample period: GridScreener would default it anyway, but making
  // it explicit in the config documents that every epoch screens with
  // identical grid geometry.
  options_.config = with_sample_period(options_.config,
                                       GridScreener::kDefaultSecondsPerSample);
}

std::size_t ScreeningService::ingest_csv(const std::string& path) {
  const std::size_t count = store_.ingest_csv(path);
  ++stats_.ingests;
  stats_.upserts += count;
  return count;
}

std::size_t ScreeningService::ingest_tle(const std::string& path) {
  const std::size_t count = store_.ingest_tle(path);
  ++stats_.ingests;
  stats_.upserts += count;
  return count;
}

void ScreeningService::upsert(const Satellite& satellite) {
  store_.upsert(satellite);
  ++stats_.upserts;
}

void ScreeningService::upsert(std::span<const Satellite> batch) {
  store_.upsert(batch);
  stats_.upserts += batch.size();
}

bool ScreeningService::remove(std::uint32_t id) {
  const bool removed = store_.remove(id);
  if (removed) ++stats_.removals;
  return removed;
}

void ScreeningService::adopt_baseline(std::shared_ptr<const CatalogSnapshot> snap,
                                      const ServiceReport& report) {
  has_baseline_ = true;
  baseline_epoch_ = snap->epoch;
  baseline_conjunctions_ = report.conjunctions;
}

ServiceReport ScreeningService::full_screen(
    std::shared_ptr<const CatalogSnapshot> snap) {
  ServiceReport report;
  report.epoch = snap->epoch;
  report.catalog_size = snap->size();

  const ScreeningReport dense =
      make_screener(Variant::kGrid)->screen(snap->satellites, options_.config);
  report.conjunctions = to_id_space(dense.conjunctions, *snap);
  report.refreshed = report.conjunctions.size();
  report.timings = dense.timings;
  report.stats = dense.stats;
  adopt_baseline(std::move(snap), report);
  return report;
}

ServiceReport ScreeningService::incremental_screen(
    std::shared_ptr<const CatalogSnapshot> snap,
    const std::vector<std::uint32_t>& dirty_ids,
    const std::vector<std::uint32_t>& removed_ids) {
  ServiceReport report;
  report.epoch = snap->epoch;
  report.catalog_size = snap->size();
  report.incremental = true;
  report.dirty = dirty_ids.size();
  report.removed = removed_ids.size();

  std::vector<IdConjunction> refreshed;
  if (!dirty_ids.empty()) {
    // Mark the dirty dense indices and run a masked grid pass over the
    // snapshot: the dirty objects are registered in a small phantom table
    // that every object looks up, so only pairs with >= 1 dirty member are
    // tested, and pair tests and refinement scale with the delta.
    std::vector<std::uint8_t> mask(snap->size(), 0);
    for (const std::uint32_t id : dirty_ids) {
      mask[snap->index_of(id)] = 1;  // dirty ids are always present
    }
    GridPipelineOptions pipeline;
    pipeline.dirty_mask = mask;
    std::optional<ScreeningReport> dense;
    try {
      dense = GridScreener(pipeline).screen(snap->satellites, options_.config);
    } catch (const MemoryBudgetExceeded&) {
      // The phantom tables (27 entries per dirty object) outgrow the
      // budget where the full screen's cell lists may still fit.
    }
    if (!dense) return full_screen(std::move(snap));
    refreshed = to_id_space(dense->conjunctions, *snap);
    report.timings = dense->timings;
    report.stats = dense->stats;
  }

  // Merge rule: a baseline conjunction stays valid iff neither member
  // changed; everything touching a dirty or removed id is stale (the
  // refreshed set re-reports whatever still exists).
  Stopwatch merge_watch;
  std::unordered_set<std::uint32_t> stale(dirty_ids.begin(), dirty_ids.end());
  stale.insert(removed_ids.begin(), removed_ids.end());

  report.conjunctions.reserve(baseline_conjunctions_.size() + refreshed.size());
  for (const IdConjunction& c : baseline_conjunctions_) {
    if (stale.count(c.id_a) == 0 && stale.count(c.id_b) == 0) {
      report.conjunctions.push_back(c);
    }
  }
  report.carried = report.conjunctions.size();
  report.evicted = baseline_conjunctions_.size() - report.carried;
  report.refreshed = refreshed.size();
  report.conjunctions.insert(report.conjunctions.end(), refreshed.begin(),
                             refreshed.end());
  std::sort(report.conjunctions.begin(), report.conjunctions.end(), id_order);
  report.merge_seconds = merge_watch.seconds();

  adopt_baseline(std::move(snap), report);
  return report;
}

std::vector<IdConjunction> ScreeningService::reference_conjunctions() const {
  const std::shared_ptr<const CatalogSnapshot> snap = store_.snapshot();
  const ScreeningReport dense =
      make_screener(Variant::kGrid)->screen(snap->satellites, options_.config);
  return to_id_space(dense.conjunctions, *snap);
}

ServiceReport ScreeningService::screen(ScreenMode mode) {
  Stopwatch total_watch;
  std::shared_ptr<const CatalogSnapshot> snap = store_.snapshot();

  ServiceReport report;
  if (!has_baseline_ || mode == ScreenMode::kFull) {
    report = full_screen(std::move(snap));
    ++stats_.full_screens;
  } else {
    const std::vector<std::uint32_t> dirty = snap->modified_since(baseline_epoch_);
    const std::vector<std::uint32_t> removed = store_.removed_since(baseline_epoch_);
    if (dirty.empty() && removed.empty()) {
      // No delta: the warm baseline is the answer.
      report.epoch = snap->epoch;
      report.incremental = true;
      report.catalog_size = snap->size();
      report.carried = baseline_conjunctions_.size();
      report.conjunctions = baseline_conjunctions_;
      baseline_epoch_ = snap->epoch;
      ++stats_.cached_screens;
    } else {
      const double fraction =
          snap->size() == 0
              ? 1.0
              : static_cast<double>(dirty.size()) / static_cast<double>(snap->size());
      const bool go_incremental =
          mode == ScreenMode::kIncremental || fraction <= kFullRescreenFraction;
      if (go_incremental) {
        report = incremental_screen(std::move(snap), dirty, removed);
        if (report.incremental) {
          ++stats_.incremental_screens;
        } else {
          ++stats_.full_screens;  // sps-drift fallback
        }
      } else {
        report = full_screen(std::move(snap));
        ++stats_.full_screens;
      }
    }
  }

  report.total_seconds = total_watch.seconds();
  if (obs::enabled()) {
    // Merge-path taken this call: exactly one of the three screen counters
    // ticks, so their sum equals the number of screen() calls observed.
    if (!report.incremental) {
      obs::count(obs::Counter::kServiceFullScreens);
    } else if (report.dirty == 0 && report.removed == 0) {
      obs::count(obs::Counter::kServiceCachedScreens);
    } else {
      obs::count(obs::Counter::kServiceIncrementalScreens);
    }
    obs::count(obs::Counter::kServiceSnapshotObjects, report.catalog_size);
    obs::count(obs::Counter::kServiceDirtyObjects, report.dirty);
    obs::count(obs::Counter::kServiceRemovedObjects, report.removed);
    obs::count(obs::Counter::kServiceCarried, report.carried);
    obs::count(obs::Counter::kServiceEvicted, report.evicted);
    obs::count(obs::Counter::kServiceRefreshed, report.refreshed);
  }
  stats_.last_epoch_screened = report.epoch;
  stats_.last_dirty = report.dirty;
  stats_.last_removed = report.removed;
  stats_.last_timings = report.timings;
  stats_.last_merge_seconds = report.merge_seconds;
  stats_.last_screen_seconds = report.total_seconds;
  stats_.total_screen_seconds += report.total_seconds;
  return report;
}

}  // namespace scod
