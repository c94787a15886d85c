/// Incremental screening walkthrough: a long-lived ScreeningService owns a
/// versioned catalog and a warm conjunction baseline. After a delta that
/// touches k of n objects (a TLE batch, a maneuver, a decay), re-screening
/// costs roughly one propagation pass plus detection and refinement of the
/// dirty pairs — not a full n-vs-n screen — and the merged report is
/// identical to one computed from scratch.

#include <algorithm>
#include <cstdio>

#include "population/generator.hpp"
#include "service/screening_service.hpp"
#include "util/rng.hpp"

int main() {
  using namespace scod;

  // A service screens a fixed window with fixed grid geometry; deltas to
  // the catalog arrive between screens.
  ServiceOptions options;
  options.config.threshold_km = 2.0;
  options.config.t_end = 3600.0;
  options.config.seconds_per_sample = 8.0;
  ScreeningService service(options);

  // Epoch 1: bulk-load the catalog (file ingest works the same way via
  // service.ingest_csv / ingest_tle).
  const auto population = generate_population({8000, 2026});
  service.upsert(population);
  std::printf("epoch %llu: catalog of %zu objects\n",
              static_cast<unsigned long long>(service.store().epoch()),
              service.store().size());

  // First screen is necessarily full — it becomes the warm baseline.
  const ServiceReport first = service.screen();
  std::printf("full screen:        %4zu conjunctions in %.2f s\n",
              first.conjunctions.size(), first.total_seconds);

  // A small delta: ~0.5%% of the objects maneuver (element updates), one
  // object decays (removal), a fresh launch appears (add).
  Rng rng(7);
  std::vector<Satellite> maneuvers;
  const auto snapshot = service.store().snapshot();
  for (int k = 0; k < 40; ++k) {
    Satellite sat = snapshot->satellites[rng.uniform_index(snapshot->size())];
    sat.elements.mean_anomaly += rng.uniform(-0.02, 0.02);
    sat.elements.arg_perigee += rng.uniform(-0.01, 0.01);
    maneuvers.push_back(sat);
  }
  service.upsert(maneuvers);
  service.remove(population.front().id);
  Satellite launch = population.back();
  launch.id = 1000000;  // a new id on its own orbit
  launch.elements.raan += 0.8;
  launch.elements.mean_anomaly += 2.1;
  service.upsert(launch);

  // Re-screen: only pairs with a dirty member are refined; everything
  // else carries over from the baseline, stale baseline pairs are evicted.
  const ServiceReport second = service.screen();
  std::printf("incremental screen: %4zu conjunctions in %.2f s "
              "(dirty %zu, carried %zu, evicted %zu, refreshed %zu)\n",
              second.conjunctions.size(), second.total_seconds, second.dirty,
              second.carried, second.evicted, second.refreshed);

  // The merged report equals a from-scratch screen of the same snapshot,
  // event for event: same pair, bit-identical TCA and PCA.
  const ServiceReport full = service.screen(ScreenMode::kFull);
  const auto same_event = [](const IdConjunction& x, const IdConjunction& y) {
    return x.id_a == y.id_a && x.id_b == y.id_b && x.tca == y.tca && x.pca == y.pca;
  };
  const bool equal = std::equal(full.conjunctions.begin(), full.conjunctions.end(),
                                second.conjunctions.begin(), second.conjunctions.end(),
                                same_event);
  std::printf("verification:       %4zu conjunctions from scratch in %.2f s -> %s\n",
              full.conjunctions.size(), full.total_seconds,
              equal ? "equal" : "MISMATCH");

  const ServiceStats& stats = service.stats();
  std::printf("\nservice counters: %llu upserts, %llu removals, "
              "%llu full + %llu incremental screens\n",
              static_cast<unsigned long long>(stats.upserts),
              static_cast<unsigned long long>(stats.removals),
              static_cast<unsigned long long>(stats.full_screens),
              static_cast<unsigned long long>(stats.incremental_screens));
  std::printf("speedup of the incremental pass: %.1fx\n",
              first.total_seconds / (second.total_seconds > 0.0
                                         ? second.total_seconds
                                         : 1e-9));
  return equal ? 0 : 1;
}
