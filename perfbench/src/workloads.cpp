#include "workloads.hpp"

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <map>

#include "obs/telemetry.hpp"
#include "parallel/thread_pool.hpp"
#include "population/catalog_io.hpp"
#include "population/generator.hpp"
#include "propagation/contour_solver.hpp"
#include "propagation/two_body.hpp"
#include "service/screening_service.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace perfbench {

using scod::Conjunction;
using scod::Satellite;
using scod::obs::Counter;

const std::vector<WorkloadSpec>& workload_specs() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> s(4);
    // Spans are a quarter of the CLI's 7200 s default, so that one cold
    // screen takes seconds and a run's median spans several of them.
    s[0].name = "grid_20k";
    s[0].variant = scod::Variant::kGrid;
    s[0].n = 20000;
    s[0].span_s = 1800.0;

    s[1].name = "hybrid_50k";
    s[1].variant = scod::Variant::kHybrid;
    s[1].n = 50000;
    s[1].span_s = 1800.0;
    s[1].sps = 16.0;
    // The grid finds the same events at s_ps 4 as at 16, in half the time.
    s[1].reference_sps = 4.0;
    s[1].misses_fail = false;

    s[2].name = "grid_wide_20k";
    s[2].variant = scod::Variant::kGrid;
    s[2].n = 20000;
    s[2].span_s = 900.0;
    s[2].threshold_km = 10.0;
    s[2].sps = 16.0;
    s[2].reference_sps = 16.0;

    s[3].name = "service_20k";
    s[3].kind = WorkloadKind::kService;
    s[3].n = 20000;
    s[3].span_s = 900.0;
    s[3].threshold_km = 10.0;
    s[3].sps = 16.0;
    return s;
  }();
  return specs;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& spec : workload_specs()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

scod::ScreeningConfig screening_config(const WorkloadSpec& spec) {
  scod::ScreeningConfig config;
  config.threshold_km = spec.threshold_km;
  config.t_end = spec.span_s;
  config.seconds_per_sample = spec.sps;
  return config;
}

std::vector<Satellite> make_catalog(const WorkloadSpec& spec, std::uint64_t seed) {
  scod::PopulationConfig population;
  population.count = spec.n;
  population.seed = seed;
  return scod::generate_population(population);
}

std::vector<Conjunction> build_reference(const WorkloadSpec& spec,
                                         const std::vector<Satellite>& satellites,
                                         std::size_t& rejected) {
  scod::ScreeningConfig config = screening_config(spec);
  config.seconds_per_sample = spec.reference_sps;
  const scod::ScreeningReport report =
      scod::make_screener(scod::Variant::kGrid)->screen(satellites, config);
  const scod::ContourKeplerSolver solver;
  const scod::TwoBodyPropagator propagator(satellites, solver);
  return confirm_events(report.conjunctions, propagator, check_settings(config), rejected);
}

ScreenerFactory default_screener_factory() {
  return [](const WorkloadSpec& spec) { return scod::make_screener(spec.variant); };
}

namespace {

// Set-up of a screen workload (load_catalog_csv + make_screener) is 30-100 ms
// of single-threaded work on whichever CPU the process runs on. On a shared
// host the CPUs differ in speed by up to half, and an unpinned thread stays
// on one CPU for seconds, so unpinned samples make a run's median depend on
// where its process started. A set-up sample therefore runs the set-up once
// on each CPU in turn, repeated for at least kSetupSampleSeconds, and records
// the mean: the set-up time of a process placed on a random CPU. One sample
// warms up unrecorded, kSetupSamples are recorded before the timed calls and
// one after each call, so the median spans the whole run.
constexpr double kSetupSampleSeconds = 0.25;
constexpr std::size_t kSetupSamples = 4;
// Service set-up (ingest + baseline full screen) takes about 2 s, parallel.
constexpr std::size_t kServiceSetups = 3;
constexpr double kDirtyFraction = 0.01;  ///< objects maneuvered per epoch

/// The CPUs the calling thread may run on.
std::vector<int> usable_cpus() {
  cpu_set_t mask;
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof mask, &mask) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &mask)) cpus.push_back(cpu);
    }
  }
  if (cpus.empty()) cpus.push_back(-1);  // unknown: run unpinned
  return cpus;
}

/// Pins the calling thread to `cpu` (none for -1) and restores the previous
/// mask when destroyed.
class PinnedTo {
 public:
  explicit PinnedTo(int cpu) {
    if (cpu < 0 || sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
  }
  ~PinnedTo() {
    if (pinned_) sched_setaffinity(0, sizeof saved_, &saved_);
  }
  PinnedTo(const PinnedTo&) = delete;
  PinnedTo& operator=(const PinnedTo&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

double counter(const scod::obs::TelemetrySnapshot& snap, Counter c) {
  return static_cast<double>(snap.value(c));
}

/// Per-layer values of one traced call, from the report's PhaseTimings and
/// ScreeningStats and the telemetry snapshot taken around the call.
MetricValues pipeline_layers(const scod::PhaseTimings& t, const scod::ScreeningStats& s,
                             const scod::obs::TelemetrySnapshot& snap) {
  MetricValues v;
  v["core.alloc_s"] = t.allocation;
  v["core.ins_s"] = t.insertion;
  v["core.cd_s"] = t.detection;
  v["filters.s"] = t.filtering;
  v["pca.s"] = t.refinement;
  v["core.parallel_samples"] = static_cast<double>(s.parallel_samples);
  v["core.rounds"] = static_cast<double>(s.rounds);
  v["core.grid_bytes"] = static_cast<double>(s.grid_memory_bytes);
  v["core.candidate_bytes"] = static_cast<double>(s.candidate_memory_bytes);

  const double tested = counter(snap, Counter::kPairsTested);
  const double emitted = counter(snap, Counter::kCandidatesEmitted);
  v["core.pairs_tested"] = tested;
  v["core.pairs_prefiltered"] = counter(snap, Counter::kPairsPrefiltered);
  v["core.pairs_masked_clean"] = counter(snap, Counter::kPairsMaskedClean);
  v["core.candidates_emitted"] = emitted;
  v["core.candidates_deduplicated"] = counter(snap, Counter::kCandidatesDeduplicated);
  v["core.candidate_yield"] = ratio(emitted, tested);

  const double samples = counter(snap, Counter::kSamplesPropagated);
  v["propagation.samples"] = samples;
  v["core.ins_ns_per_sample"] = ratio(t.insertion * 1e9, samples);

  const double inserts = counter(snap, Counter::kGridInserts);
  v["spatial.inserts"] = inserts;
  v["spatial.mean_probe_length"] = snap.mean_probe_length();
  v["spatial.occupancy"] = snap.occupancy();
  v["spatial.cas_retries"] = counter(snap, Counter::kGridCasRetries);
  v["spatial.pool_rejects"] = counter(snap, Counter::kGridPoolRejects);
  v["spatial.cells_scanned"] = counter(snap, Counter::kCellsScanned);
  v["spatial.cells_occupied"] = counter(snap, Counter::kCellsOccupied);
  v["spatial.occupied_ratio"] = ratio(counter(snap, Counter::kCellsOccupied), inserts);

  const double pairs_in = counter(snap, Counter::kFilterPairsIn);
  const double survivors = counter(snap, Counter::kFilterSurvivors);
  v["filters.pairs_in"] = pairs_in;
  v["filters.ap_rejects"] = counter(snap, Counter::kFilterApogeePerigeeRejects);
  v["filters.path_rejects"] = counter(snap, Counter::kFilterPathRejects);
  v["filters.window_rejects"] = counter(snap, Counter::kFilterWindowRejects);
  v["filters.coplanar_pairs"] = counter(snap, Counter::kFilterCoplanarPairs);
  v["filters.survivors"] = survivors;
  v["filters.survivor_ratio"] = ratio(survivors, pairs_in);

  const double refinements = counter(snap, Counter::kRefinements);
  const double raw = counter(snap, Counter::kConjunctionsRaw);
  v["pca.refinements"] = refinements;
  v["pca.brent_iterations"] = counter(snap, Counter::kBrentIterations);
  v["pca.edge_discards"] = counter(snap, Counter::kEdgeDiscards);
  v["pca.window_clamps"] = counter(snap, Counter::kWindowClamps);
  v["pca.conjunctions_raw"] = raw;
  v["pca.yield"] = ratio(raw, refinements);
  return v;
}

/// Telemetry on for exactly one traced call.
class TelemetryWindow {
 public:
  explicit TelemetryWindow(bool on) : on_(on) {
    if (on_) {
      scod::obs::reset();
      scod::obs::set_enabled(true);
    }
  }
  ~TelemetryWindow() { close(); }
  TelemetryWindow(const TelemetryWindow&) = delete;
  TelemetryWindow& operator=(const TelemetryWindow&) = delete;

  scod::obs::TelemetrySnapshot close() {
    if (!on_) return {};
    on_ = false;
    scod::obs::set_enabled(false);
    return scod::obs::snapshot();
  }

 private:
  bool on_;
};

void annotate_call(SpanRecorder& rec, int span, const scod::PhaseTimings& t,
                   const scod::obs::TelemetrySnapshot& snap) {
  if (span < 0) return;
  rec.annotate(span, "phase.allocation_s", t.allocation);
  rec.annotate(span, "phase.insertion_s", t.insertion);
  rec.annotate(span, "phase.detection_s", t.detection);
  rec.annotate(span, "phase.filtering_s", t.filtering);
  rec.annotate(span, "phase.refinement_s", t.refinement);
  for (std::size_t i = 0; i < scod::obs::kCounterCount; ++i) {
    rec.annotate(span, std::string("obs.") + scod::obs::counter_name(static_cast<Counter>(i)),
                 static_cast<double>(snap.counters[i]));
  }
}

/// State shared by both workload kinds: the recorder, the timing samples,
/// and the metrics derived from them at the end.
class RunState {
 public:
  RunState(const WorkloadSpec& spec, const RunOptions& options)
      : spec_(spec), options_(options), rec_(options.trace),
        threads_(scod::global_thread_pool().thread_count()) {}

  SpanRecorder& rec() { return rec_; }

  /// Keeps going until the measuring time is used up, with at least one call
  /// timed. A traced run first makes one unrecorded warm-up call, so that
  /// obs.overhead compares warm calls, then alternates traced and untraced
  /// calls, at least one of each.
  bool want_more(std::size_t calls) const {
    constexpr std::size_t kMaxCalls = 10000;  // bounds a loop of failing calls
    if (calls >= kMaxCalls) return false;
    if (calls < (options_.trace ? 3u : 1u)) return true;
    return clock_.seconds() < options_.seconds;
  }
  bool traced_call(std::size_t calls) const { return options_.trace && calls % 2 == 1; }
  void start_clock() { clock_.restart(); }

  void add_setup(double setup_s, double load_s) {
    result_.setup_s.push_back(setup_s);
    load_s_.push_back(load_s);
  }

  /// Records call number `calls`; per-layer values only for traced calls.
  void add_call(std::size_t calls, double wall_s, const ClockSample& begin,
                const ClockSample& end, MetricValues layers) {
    if (options_.trace && calls == 0) return;  // the warm-up call
    const bool traced = traced_call(calls);
    ++result_.timed_calls;
    if (!traced) {
      result_.call_s.push_back(wall_s);
      return;
    }
    ++result_.traced_calls;
    traced_s_.push_back(wall_s);
    layers["parallel.cpu_util"] = cpu_utilization(begin, end, threads_);
    for (const auto& [key, value] : layers) layer_samples_[key].push_back(value);
  }

  /// Folds one checked report into the failure accounting.
  void add_check(const CheckResult& check) {
    CheckResult& sum = result_.check;
    sum.reported += check.reported;
    sum.invalid += check.invalid;
    sum.reference += check.reference;
    sum.matched += check.matched;
    sum.missed += check.missed;
    sum.pca_off += check.pca_off;
    sum.extra += check.extra;
    for (const std::string& p : check.problems) {
      if (sum.problems.size() < 8) sum.problems.push_back(p);
    }
    result_.outcome.attempted += check.reported;
    result_.outcome.failed += check.invalid + check.pca_off + check.extra;
    if (spec_.misses_fail) {
      result_.outcome.attempted += check.reference;
      result_.outcome.failed += check.missed;
    }
  }

  void add_failed_call(const std::string& what) {
    ++result_.outcome.attempted;
    ++result_.outcome.failed;
    if (result_.check.problems.size() < 8) result_.check.problems.push_back(what);
  }
  void add_good_call() { ++result_.outcome.attempted; }

  RunResult finish() {
    MetricValues& v = result_.values;
    v["screen_s"] = median(result_.call_s);
    v["setup_s"] = median(result_.setup_s);
    v["peak_rss_mb"] = peak_rss_mib();
    const CheckResult& c = result_.check;
    v["recall"] = c.reference > 0 ? static_cast<double>(c.matched) /
                                        static_cast<double>(c.reference)
                                  : 1.0;
    if (options_.trace) {
      for (const auto& [key, samples] : layer_samples_) v[key] = median(samples);
      v["population.load_s"] = median(load_s_);
      const double untraced = median(result_.call_s);
      v["obs.overhead"] = untraced > 0.0 ? median(traced_s_) / untraced - 1.0 : 0.0;
      for (const char* key : {"service.upsert_s", "service.screen_s", "service.merge_s",
                              "service.dirty", "service.carried", "service.evicted",
                              "service.refreshed"}) {
        v.try_emplace(key, 0.0);  // the layer does not run in screen workloads
      }
      if (!options_.trace_path.empty()) rec_.write_chrome_trace(options_.trace_path);
    }
    return result_;
  }

 private:
  const WorkloadSpec& spec_;
  const RunOptions& options_;
  SpanRecorder rec_;
  std::size_t threads_;
  scod::Stopwatch clock_;
  RunResult result_;
  std::vector<double> load_s_, traced_s_;
  std::map<std::string, std::vector<double>> layer_samples_;
};

void write_catalog(const WorkloadSpec& spec, const RunOptions& options,
                   const std::string& path, SpanRecorder& rec) {
  std::vector<Satellite> catalog;
  {
    ScopedSpan span(rec, "population.generate_population");
    catalog = make_catalog(spec, options.seed);
  }
  ScopedSpan span(rec, "population.save_catalog_csv");
  scod::save_catalog_csv(path, catalog);
}

RunResult run_screen(const WorkloadSpec& spec, const RunOptions& options,
                     const ScreenerFactory& factory) {
  RunState state(spec, options);
  SpanRecorder& rec = state.rec();
  const scod::ScreeningConfig config = screening_config(spec);
  const CheckSettings settings = check_settings(config);

  const std::string catalog_path = options.work_dir + "/catalog-" + spec.name + ".csv";
  write_catalog(spec, options, catalog_path, rec);
  std::vector<Conjunction> reference;
  {
    ScopedSpan span(rec, "check.read_reference");
    reference = read_reference(options.reference_path);
  }

  // Set-up, as `scod screen` does it: load the catalog, build the screener.
  const std::vector<int> cpus = usable_cpus();
  const auto setup_sample = [&](bool record) {
    std::vector<Satellite> loaded;
    double setup_s = 0.0, load_s = 0.0;
    std::size_t rounds = 0;
    const scod::Stopwatch sample_clock;
    do {
      for (const int cpu : cpus) {
        const PinnedTo pin(cpu);
        ScopedSpan span(rec, "setup");
        const scod::Stopwatch setup_clock;
        {
          ScopedSpan load(rec, "population.load_catalog_csv");
          const scod::Stopwatch load_clock;
          loaded = scod::load_catalog_csv(catalog_path);
          load_s += load_clock.seconds();
        }
        {
          ScopedSpan make(rec, "core.make_screener");
          const std::unique_ptr<scod::Screener> screener = factory(spec);
        }
        setup_s += setup_clock.seconds();
        ++rounds;
      }
    } while (sample_clock.seconds() < kSetupSampleSeconds);
    const auto count = static_cast<double>(rounds);
    if (record) state.add_setup(setup_s / count, load_s / count);
    return loaded;
  };
  setup_sample(false);
  std::vector<Satellite> satellites;
  for (std::size_t r = 0; r < kSetupSamples; ++r) satellites = setup_sample(true);

  const scod::ContourKeplerSolver solver;
  const scod::TwoBodyPropagator propagator(satellites, solver);

  state.start_clock();
  for (std::size_t calls = 0; state.want_more(calls); ++calls) {
    const bool traced = state.traced_call(calls);
    // Each timed screen is cold: a fresh screener without a context.
    const std::unique_ptr<scod::Screener> screener = factory(spec);
    scod::ScreeningReport report;
    bool threw = false;
    std::string error;
    scod::obs::TelemetrySnapshot snap;
    const int span = rec.begin(traced ? "core.screen.traced" : "core.screen");
    const ClockSample begin = ClockSample::now();
    {
      TelemetryWindow telemetry(traced);
      try {
        report = screener->screen(satellites, config);
      } catch (const std::exception& e) {
        threw = true;
        error = e.what();
      }
      snap = telemetry.close();
    }
    const ClockSample end = ClockSample::now();
    annotate_call(rec, span, report.timings, snap);
    rec.end(span);

    if (threw) {
      state.add_failed_call("screen threw: " + error);
      continue;
    }
    state.add_good_call();
    state.add_call(calls, end.wall_s - begin.wall_s, begin, end,
                   traced ? pipeline_layers(report.timings, report.stats, snap)
                          : MetricValues{});
    {
      ScopedSpan check_span(rec, "check.report");
      CheckResult check;
      validate_events(report.conjunctions, propagator, settings, check);
      match_reference(report.conjunctions, reference, settings, false, check);
      state.add_check(check);
    }
    setup_sample(true);
  }
  return state.finish();
}

/// The service's id-space events in the dense index space of `snap`.
std::vector<Conjunction> dense_events(const std::vector<scod::IdConjunction>& events,
                                      const scod::CatalogSnapshot& snap) {
  std::vector<Conjunction> out;
  out.reserve(events.size());
  for (const scod::IdConjunction& e : events) {
    out.push_back({static_cast<std::uint32_t>(snap.index_of(e.id_a)),
                   static_cast<std::uint32_t>(snap.index_of(e.id_b)), e.tca, e.pca});
  }
  return out;
}

RunResult run_service(const WorkloadSpec& spec, const RunOptions& options) {
  RunState state(spec, options);
  SpanRecorder& rec = state.rec();
  scod::ServiceOptions service_options;
  service_options.config = screening_config(spec);
  const CheckSettings settings = check_settings(service_options.config);

  const std::string catalog_path = options.work_dir + "/catalog-" + spec.name + ".csv";
  write_catalog(spec, options, catalog_path, rec);

  // Set-up: ingest the catalog and run the baseline full screen.
  std::unique_ptr<scod::ScreeningService> service;
  for (std::size_t r = 0; r < kServiceSetups; ++r) {
    service.reset();
    ScopedSpan span(rec, "setup");
    scod::Stopwatch setup_clock;
    service = std::make_unique<scod::ScreeningService>(service_options);
    double load_s = 0.0;
    {
      ScopedSpan ingest(rec, "service.ingest_csv");
      scod::Stopwatch load_clock;
      service->ingest_csv(catalog_path);
      load_s = load_clock.seconds();
    }
    {
      ScopedSpan baseline(rec, "service.screen.full");
      service->screen(scod::ScreenMode::kFull);
    }
    state.add_setup(setup_clock.seconds(), load_s);
  }

  const std::size_t n = service->store().size();
  const std::size_t k = std::max<std::size_t>(
      1, static_cast<std::size_t>(kDirtyFraction * static_cast<double>(n)));
  const std::size_t stride = std::max<std::size_t>(1, n / k);
  scod::Rng rng(options.seed + 1);
  const scod::ContourKeplerSolver solver;

  scod::ServiceReport last;
  bool have_last = false;
  state.start_clock();
  for (std::size_t calls = 0; state.want_more(calls); ++calls) {
    const bool traced = state.traced_call(calls);
    // k objects maneuver, spread across the catalog and shifted each epoch.
    const auto before = service->store().snapshot();
    std::vector<Satellite> batch;
    batch.reserve(k);
    for (std::size_t i = 0; i < k; ++i) {
      Satellite sat = before->satellites[(i * stride + calls) % before->size()];
      sat.elements.mean_anomaly += rng.uniform(-0.05, 0.05);
      sat.elements.arg_perigee += rng.uniform(-0.02, 0.02);
      batch.push_back(sat);
    }

    scod::ServiceReport report;
    bool threw = false;
    std::string error;
    scod::obs::TelemetrySnapshot snap;
    double upsert_s = 0.0, screen_s = 0.0;
    const int span = rec.begin(traced ? "service.epoch.traced" : "service.epoch");
    const ClockSample begin = ClockSample::now();
    {
      TelemetryWindow telemetry(traced);
      try {
        scod::Stopwatch watch;
        {
          ScopedSpan upsert(rec, "service.upsert");
          service->upsert(batch);
        }
        upsert_s = watch.seconds();
        watch.restart();
        {
          ScopedSpan screen(rec, "service.screen.incremental");
          report = service->screen(scod::ScreenMode::kIncremental);
        }
        screen_s = watch.seconds();
      } catch (const std::exception& e) {
        threw = true;
        error = e.what();
      }
      snap = telemetry.close();
    }
    const ClockSample end = ClockSample::now();
    annotate_call(rec, span, report.timings, snap);
    rec.end(span);

    if (threw) {
      state.add_failed_call("epoch threw: " + error);
      continue;
    }
    state.add_good_call();
    MetricValues layers;
    if (traced) {
      layers = pipeline_layers(report.timings, report.stats, snap);
      layers["service.upsert_s"] = upsert_s;
      layers["service.screen_s"] = screen_s;
      layers["service.merge_s"] = report.merge_seconds;
      layers["service.dirty"] = static_cast<double>(report.dirty);
      layers["service.carried"] = static_cast<double>(report.carried);
      layers["service.evicted"] = static_cast<double>(report.evicted);
      layers["service.refreshed"] = static_cast<double>(report.refreshed);
    }
    state.add_call(calls, end.wall_s - begin.wall_s, begin, end, std::move(layers));

    ScopedSpan check_span(rec, "check.report");
    const auto after = service->store().snapshot();
    const scod::TwoBodyPropagator propagator(after->satellites, solver);
    CheckResult check;
    validate_events(dense_events(report.conjunctions, *after), propagator, settings, check);
    state.add_check(check);
    last = std::move(report);
    have_last = true;
  }

  // The merged report of the last epoch must equal a from-scratch screen.
  if (have_last) {
    ScopedSpan span(rec, "check.reference_conjunctions");
    const auto snap = service->store().snapshot();
    CheckResult check;
    match_reference(dense_events(last.conjunctions, *snap),
                    dense_events(service->reference_conjunctions(), *snap), settings,
                    true, check);
    state.add_check(check);
  }
  return state.finish();
}

}  // namespace

RunResult run_workload(const WorkloadSpec& spec, const RunOptions& options,
                       const ScreenerFactory& factory) {
  return spec.kind == WorkloadKind::kService ? run_service(spec, options)
                                             : run_screen(spec, options, factory);
}

}  // namespace perfbench
