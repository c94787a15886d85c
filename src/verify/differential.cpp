#include "verify/differential.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <unordered_map>

#include "obs/telemetry.hpp"
#include "parallel/device.hpp"
#include "service/screening_service.hpp"

namespace scod::verify {

namespace {

std::uint64_t pair_key(std::uint32_t a, std::uint32_t b) {
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

std::string event_detail(const char* what, const Conjunction& c) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s %u-%u tca=%.3f pca=%.6f", what, c.sat_a,
                c.sat_b, c.tca, c.pca);
  return buf;
}

/// Diffs one screener's report against the oracle record (which extends to
/// slack * threshold so soundness can be checked above the threshold too).
void diff_against_oracle(const std::string& name,
                         const std::vector<Conjunction>& report,
                         const std::vector<Conjunction>& oracle,
                         double threshold, const DiffTolerances& tol,
                         std::vector<Divergence>& out) {
  std::unordered_map<std::uint64_t, std::vector<const Conjunction*>> by_pair;
  for (const Conjunction& c : oracle) {
    by_pair[pair_key(c.sat_a, c.sat_b)].push_back(&c);
  }

  const double band_lo = threshold * (1.0 - tol.threshold_band);

  // Completeness: every oracle event comfortably below the threshold must
  // appear in the report (the grid guarantee of Fig. 4 admits no skips).
  std::unordered_map<std::uint64_t, std::vector<const Conjunction*>> report_by_pair;
  for (const Conjunction& c : report) {
    report_by_pair[pair_key(c.sat_a, c.sat_b)].push_back(&c);
  }
  for (const Conjunction& c : oracle) {
    if (c.pca > band_lo) continue;
    bool found = false;
    const auto it = report_by_pair.find(pair_key(c.sat_a, c.sat_b));
    if (it != report_by_pair.end()) {
      for (const Conjunction* r : it->second) {
        if (std::abs(r->tca - c.tca) <= tol.tca_window) {
          found = true;
          break;
        }
      }
    }
    if (!found) {
      out.push_back({name, Divergence::Kind::kMissed, c,
                     event_detail("missed oracle event", c)});
    }
  }

  // Soundness: everything reported must be sub-threshold and correspond to
  // an oracle event with an agreeing PCA.
  for (const Conjunction& c : report) {
    if (c.pca > threshold * (1.0 + 1e-9)) {
      out.push_back({name, Divergence::Kind::kSpurious, c,
                     event_detail("above-threshold report", c)});
      continue;
    }
    const Conjunction* best = nullptr;
    const auto it = by_pair.find(pair_key(c.sat_a, c.sat_b));
    if (it != by_pair.end()) {
      for (const Conjunction* o : it->second) {
        if (std::abs(o->tca - c.tca) > tol.tca_window) continue;
        if (best == nullptr ||
            std::abs(o->tca - c.tca) < std::abs(best->tca - c.tca)) {
          best = o;
        }
      }
    }
    if (best == nullptr) {
      out.push_back({name, Divergence::Kind::kSpurious, c,
                     event_detail("invented event", c)});
    } else if (std::abs(best->pca - c.pca) > tol.pca_tolerance) {
      out.push_back({name, Divergence::Kind::kPcaMismatch, c,
                     event_detail("pca mismatch vs oracle", c) +
                         " oracle_pca=" + std::to_string(best->pca)});
    }
  }
}

/// Requires devicesim's grid report, detected through the paper's hash
/// grid, to equal the CPU's, detected through cell lists: the two
/// structures must find the same candidates, so every conjunction must
/// match bit for bit. (The CPU's warm-started positions are within 1e-9 km
/// of devicesim's cold ones, not equal: a pair that close to the
/// prefilter cutoff or a cell face could differ by design.) Reports the
/// first event where the two differ.
void diff_backends(const std::vector<Conjunction>& cpu,
                   const std::vector<Conjunction>& device,
                   std::vector<Divergence>& out) {
  const auto same = [](const Conjunction& a, const Conjunction& b) {
    return a.sat_a == b.sat_a && a.sat_b == b.sat_b && a.tca == b.tca && a.pca == b.pca;
  };
  const auto [c, d] = std::mismatch(cpu.begin(), cpu.end(), device.begin(), device.end(), same);
  if (c == cpu.end() && d == device.end()) return;
  const bool from_cpu = c != cpu.end();
  const Conjunction& event = from_cpu ? *c : *d;
  out.push_back({"grid-devicesim", Divergence::Kind::kBackendMismatch, event,
                 event_detail(from_cpu ? "CPU event devicesim lacks" : "devicesim extra event",
                              event)});
}

/// Runs the case's randomized delta through the incremental service and
/// requires the merged report to equal the from-scratch reference (the
/// service's documented exactness contract, far inside Brent tolerance).
void diff_service(const FuzzCase& fuzz_case, std::vector<Divergence>& out) {
  ServiceOptions service_options;
  service_options.config = fuzz_case.config;
  ScreeningService service(service_options);

  service.upsert(fuzz_case.satellites);
  service.screen();  // warm baseline

  if (!fuzz_case.delta_updates.empty()) service.upsert(fuzz_case.delta_updates);
  for (const std::uint32_t id : fuzz_case.delta_removals) service.remove(id);
  if (!fuzz_case.delta_adds.empty()) service.upsert(fuzz_case.delta_adds);

  const ServiceReport incremental = service.screen(ScreenMode::kIncremental);
  const std::vector<IdConjunction> reference = service.reference_conjunctions();

  const auto mismatch = [&](const char* what, const IdConjunction& c) {
    Conjunction event{c.id_a, c.id_b, c.tca, c.pca};
    out.push_back({"service", Divergence::Kind::kServiceMismatch, event,
                   event_detail(what, event)});
  };

  if (incremental.conjunctions.size() != reference.size()) {
    // Report the first few set-difference entries for diagnosis.
    std::size_t reported = 0;
    for (const IdConjunction& want : reference) {
      const bool present = std::any_of(
          incremental.conjunctions.begin(), incremental.conjunctions.end(),
          [&](const IdConjunction& got) {
            return got.id_a == want.id_a && got.id_b == want.id_b &&
                   std::abs(got.tca - want.tca) <= 1e-6;
          });
      if (!present && reported++ < 4) mismatch("incremental missing", want);
    }
    for (const IdConjunction& got : incremental.conjunctions) {
      const bool expected = std::any_of(
          reference.begin(), reference.end(), [&](const IdConjunction& want) {
            return got.id_a == want.id_a && got.id_b == want.id_b &&
                   std::abs(got.tca - want.tca) <= 1e-6;
          });
      if (!expected && reported++ < 8) mismatch("incremental extra", got);
    }
    if (reported == 0) {
      mismatch("incremental size mismatch",
               IdConjunction{0, 0, 0.0,
                             static_cast<double>(incremental.conjunctions.size()) -
                                 static_cast<double>(reference.size())});
    }
    return;
  }
  for (std::size_t i = 0; i < reference.size(); ++i) {
    const IdConjunction& got = incremental.conjunctions[i];
    const IdConjunction& want = reference[i];
    if (got.id_a != want.id_a || got.id_b != want.id_b ||
        std::abs(got.tca - want.tca) > 1e-6 ||
        std::abs(got.pca - want.pca) > 1e-9) {
      mismatch("incremental entry differs from reference", got);
    }
  }
}

/// Validates the telemetry funnel of one variant screen against the
/// invariants the counters are designed around. `snap` must cover exactly
/// this screen (reset before, snapshot after).
void check_counter_invariants(const std::string& name, Variant variant,
                              const ScreeningReport& report,
                              const obs::TelemetrySnapshot& snap,
                              std::vector<Divergence>& out) {
  using C = obs::Counter;
  const auto v = [&](C c) { return snap.value(c); };
  const auto expect = [&](bool ok, const char* what, std::uint64_t lhs,
                          std::uint64_t rhs) {
    if (ok) return;
    char buf[192];
    std::snprintf(buf, sizeof(buf), "counter invariant '%s' violated: %llu vs %llu",
                  what, static_cast<unsigned long long>(lhs),
                  static_cast<unsigned long long>(rhs));
    out.push_back({name, Divergence::Kind::kCounterViolation, Conjunction{}, buf});
  };

  // Refinement monotonicity holds for every variant: each raw conjunction
  // came out of one minimization, and merging only removes events.
  const std::uint64_t raw = v(C::kConjunctionsRaw);
  const std::uint64_t reported = v(C::kConjunctionsReported);
  expect(reported == report.conjunctions.size(), "reported == |conjunctions|",
         reported, report.conjunctions.size());
  expect(raw >= reported, "raw >= reported", raw, reported);
  expect(v(C::kRefinements) >= raw, "refinements >= raw", v(C::kRefinements), raw);

  if (variant == Variant::kGrid || variant == Variant::kHybrid) {
    // Detection funnel conservation: every tested pair lands in exactly one
    // bucket (clean-masked, prefiltered, out of reach, emitted); none is
    // emitted twice. No screen tests a clean-clean pair, so the
    // clean-masked bucket is 0.
    const std::uint64_t classified = v(C::kPairsMaskedClean) + v(C::kPairsPrefiltered) +
                                     v(C::kPairsReachRejected) +
                                     v(C::kCandidatesEmitted);
    expect(v(C::kCandidatesDeduplicated) == 0, "deduplicated == 0",
           v(C::kCandidatesDeduplicated), std::uint64_t{0});
    expect(v(C::kPairsTested) == classified, "pairs_tested conservation",
           v(C::kPairsTested), classified);
    expect(v(C::kCandidatesEmitted) == report.stats.candidates,
           "emitted == stats.candidates", v(C::kCandidatesEmitted),
           report.stats.candidates);
    if (variant == Variant::kGrid) {
      // The front end rejected the candidates out of reach: each emitted
      // one is searched.
      expect(v(C::kRefinements) == v(C::kCandidatesEmitted),
             "refinements == candidates_emitted", v(C::kRefinements),
             v(C::kCandidatesEmitted));
    }
    expect(v(C::kCellsOccupied) <= v(C::kCellsScanned),
           "occupied <= scanned", v(C::kCellsOccupied), v(C::kCellsScanned));
    const std::uint64_t samples = static_cast<std::uint64_t>(
        report.stats.total_samples * report.stats.satellites);
    expect(v(C::kSamplesPropagated) == samples,
           "samples_propagated == total_samples * n", v(C::kSamplesPropagated),
           samples);
    expect(v(C::kGridInserts) == v(C::kSamplesPropagated),
           "grid_inserts == samples_propagated", v(C::kGridInserts),
           v(C::kSamplesPropagated));
    const std::uint64_t hist_total =
        std::accumulate(snap.probe_histogram.begin(), snap.probe_histogram.end(),
                        std::uint64_t{0});
    expect(hist_total == v(C::kGridInserts), "probe histogram sums to inserts",
           hist_total, v(C::kGridInserts));
  }

  if (variant == Variant::kHybrid || variant == Variant::kLegacy) {
    // Filter-chain conservation and monotonicity.
    const std::uint64_t buckets =
        v(C::kFilterApogeePerigeeRejects) + v(C::kFilterPathRejects) +
        v(C::kFilterWindowRejects) + v(C::kFilterSurvivors);
    expect(v(C::kFilterPairsIn) == buckets, "filter_pairs_in conservation",
           v(C::kFilterPairsIn), buckets);
    // The node test runs on every non-coplanar ap-pass pair and hands the
    // pairs it leaves open to the window filter.
    const std::uint64_t node_tests = v(C::kFilterPairsIn) -
                                     v(C::kFilterApogeePerigeeRejects) -
                                     v(C::kFilterCoplanarPairs);
    expect(v(C::kFilterPathChecks) == node_tests,
           "path_checks == in - ap_rejects - coplanar", v(C::kFilterPathChecks),
           node_tests);
    expect(v(C::kFilterWindowChecks) == node_tests - v(C::kFilterPathRejects),
           "window_checks == path_checks - path_rejects", v(C::kFilterWindowChecks),
           node_tests - v(C::kFilterPathRejects));
    expect(v(C::kFilterWindowRejects) <= v(C::kFilterWindowChecks),
           "window_rejects <= window_checks", v(C::kFilterWindowRejects),
           v(C::kFilterWindowChecks));
  }
}

}  // namespace

const char* divergence_kind_name(Divergence::Kind kind) {
  switch (kind) {
    case Divergence::Kind::kMissed: return "missed";
    case Divergence::Kind::kSpurious: return "spurious";
    case Divergence::Kind::kPcaMismatch: return "pca-mismatch";
    case Divergence::Kind::kServiceMismatch: return "service-mismatch";
    case Divergence::Kind::kCounterViolation: return "counter-violation";
    case Divergence::Kind::kBackendMismatch: return "backend-mismatch";
  }
  return "unknown";
}

void RunStats::add(const CaseResult& result) {
  ++cases;
  if (!result.ok()) ++divergent_cases;
  divergences += result.divergences.size();
  oracle_events += result.oracle_events;
  must_find += result.must_find;
  near_misses += result.near_misses;
  for (const Divergence& d : result.divergences) {
    ++divergences_by_screener[d.screener];
  }
}

std::string RunStats::to_json() const {
  std::string json = "{";
  const auto field = [&](const char* key, std::size_t value, bool comma = true) {
    json += '"';
    json += key;
    json += "\":";
    json += std::to_string(value);
    if (comma) json += ',';
  };
  field("cases", cases);
  field("divergent_cases", divergent_cases);
  field("divergences", divergences);
  field("oracle_events", oracle_events);
  field("must_find", must_find);
  field("near_misses", near_misses);
  json += "\"by_screener\":{";
  bool first = true;
  for (const auto& [name, count] : divergences_by_screener) {
    if (!first) json += ',';
    first = false;
    json += '"' + name + "\":" + std::to_string(count);
  }
  json += "}}";
  return json;
}

CaseResult run_differential(const FuzzCase& fuzz_case,
                            const DifferentialOptions& options) {
  CaseResult result;
  const double threshold = fuzz_case.config.threshold_km;
  const DiffTolerances& tol = options.tolerances;

  const std::vector<Conjunction> oracle =
      oracle_conjunctions(fuzz_case.satellites, fuzz_case.config, options.oracle);
  for (const Conjunction& c : oracle) {
    if (c.pca <= threshold) ++result.oracle_events;
    if (c.pca <= threshold * (1.0 - tol.threshold_band)) {
      ++result.must_find;
    } else if (c.pca <= threshold * (1.0 + tol.threshold_band)) {
      ++result.near_misses;
    }
  }

  const bool counters = options.check_counters && obs::compiled();
  const bool was_enabled = obs::enabled();
  const auto screen_checked = [&](const std::string& name, Variant variant,
                                  const ScreeningConfig& config) {
    if (counters) {
      obs::reset();
      obs::set_enabled(true);
    }
    ScreeningReport report = screen(fuzz_case.satellites, config, variant);
    if (counters) {
      obs::set_enabled(was_enabled);
      check_counter_invariants(name, variant, report, obs::snapshot(), result.divergences);
    }
    diff_against_oracle(name, report.conjunctions, oracle, threshold, tol,
                        result.divergences);
    return report;
  };
  std::vector<Conjunction> cpu_grid;
  for (const Variant variant : kAllVariants) {
    ScreeningReport report =
        screen_checked(variant_name(variant), variant, fuzz_case.config);
    if (variant == Variant::kGrid) cpu_grid = std::move(report.conjunctions);
  }

  // The grid once more on devicesim, where the paper's hash grid detects
  // what the CPU's cell lists did.
  Device device;
  ScreeningConfig device_config = fuzz_case.config;
  device_config.device = &device;
  diff_backends(cpu_grid,
                screen_checked("grid-devicesim", Variant::kGrid, device_config).conjunctions,
                result.divergences);

  if (options.check_service) {
    diff_service(fuzz_case, result.divergences);
  }
  return result;
}

}  // namespace scod::verify
