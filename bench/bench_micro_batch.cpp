/// Scalar vs batched propagation throughput: the grid pipeline's INS phase
/// propagates every satellite at every sample, and PR "batched SoA kernel"
/// replaced its one-virtual-call-per-tuple loop with
/// TwoBodyPropagator::positions_at over the SoA mirror. This harness
/// measures positions/s of both paths at several population sizes, checks
/// they agree to 1e-12 km (they are bit-identical by construction), adds
/// the warm-start kernel (positions_warm) in runs of kWarmRun consecutive
/// samples, the first solved cold, as the CPU grid front end takes them,
/// checked to 1e-9 km, and
/// runs the grid screener end to end on both insertion paths: directly on
/// the TwoBodyPropagator (batched kernel) and through a forwarding
/// propagator, which takes the per-tuple path.
///
///   ./bench_micro_batch --sizes 10000,100000,1000000 --e2e-n 4000
///       --json ../BENCH_pr1.json   (one line)
///
/// Committed snapshots follow the BENCH_<tag>.json convention (repo root).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/grid_screener.hpp"
#include "orbit/elements.hpp"
#include "propagation/contour_solver.hpp"
#include "propagation/two_body.hpp"
#include "util/constants.hpp"
#include "util/rng.hpp"

namespace {

using namespace scod;
using namespace scod::bench;

/// LEO-band population synthesized directly from the RNG — the KDE-based
/// generator is overkill (and slow) for a million-element throughput probe.
std::vector<Satellite> synthetic_population(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Satellite> sats(n);
  for (std::size_t i = 0; i < n; ++i) {
    KeplerElements e;
    e.semi_major_axis = rng.uniform(6800.0, 8200.0);
    e.eccentricity = rng.uniform(0.0, 0.05);
    e.inclination = rng.uniform(0.0, kPi);
    e.raan = rng.uniform(0.0, kTwoPi);
    e.arg_perigee = rng.uniform(0.0, kTwoPi);
    e.mean_anomaly = rng.uniform(0.0, kTwoPi);
    sats[i] = {static_cast<std::uint32_t>(i), e};
  }
  return sats;
}

struct Throughput {
  double scalar_pos_per_s = 0.0;
  double batch_pos_per_s = 0.0;
  double warm_pos_per_s = 0.0;
  double scalar_seconds = 0.0;
  double batch_seconds = 0.0;
  double warm_seconds = 0.0;
  double max_diff_km = 0.0;
  double warm_max_diff_km = 0.0;
};

Throughput measure(const TwoBodyPropagator& prop, std::int64_t repeats) {
  const std::size_t n = prop.size();
  // Enough samples that even the 10k case runs for a measurable while.
  const std::size_t samples = std::max<std::size_t>(1'000'000 / n, 4);

  std::vector<Vec3> scalar_out(n);
  std::vector<Vec3> batch_out(n);
  std::vector<Vec3> warm_out(n);
  std::vector<double> anomalies(n);

  Throughput result;
  const auto sample_time = [](std::size_t s) {
    return 7.3 * static_cast<double>(s);  // irrational-ish stride, ~anomaly sweep
  };

  result.scalar_seconds = median_seconds(
      [&] {
        for (std::size_t s = 0; s < samples; ++s) {
          const double t = sample_time(s);
          for (std::size_t i = 0; i < n; ++i) scalar_out[i] = prop.position(i, t);
        }
      },
      repeats);
  result.batch_seconds = median_seconds(
      [&] {
        for (std::size_t s = 0; s < samples; ++s) {
          prop.positions_at(sample_time(s), 0, n, batch_out.data());
        }
      },
      repeats);

  result.warm_seconds = median_seconds(
      [&] {
        for (std::size_t s = 0; s < samples; ++s) {
          if (s % kWarmRun == 0) {
            prop.positions_at(sample_time(s), 0, n, warm_out.data(), anomalies.data());
          } else {
            prop.positions_warm(sample_time(s), sample_time(s) - sample_time(s - 1), 0, n,
                                anomalies.data(), warm_out.data());
          }
        }
      },
      repeats);

  // Equivalence check at the last sample (all three buffers hold it now).
  for (std::size_t i = 0; i < n; ++i) {
    result.max_diff_km = std::max(result.max_diff_km, scalar_out[i].distance(batch_out[i]));
    result.warm_max_diff_km =
        std::max(result.warm_max_diff_km, scalar_out[i].distance(warm_out[i]));
  }

  const double positions = static_cast<double>(n) * static_cast<double>(samples);
  result.scalar_pos_per_s = positions / result.scalar_seconds;
  result.batch_pos_per_s = positions / result.batch_seconds;
  result.warm_pos_per_s = positions / result.warm_seconds;
  return result;
}

/// Forwards every call to a TwoBodyPropagator without being one, so the
/// grid pipeline inserts through one virtual position() call per tuple.
/// It also hides the snapshot refinement evaluator, so the end-to-end
/// comparison includes virtual-dispatch refinement as well.
class ForwardingPropagator final : public Propagator {
 public:
  explicit ForwardingPropagator(const Propagator& inner) : inner_(inner) {}

  std::size_t size() const override { return inner_.size(); }
  Vec3 position(std::size_t index, double time) const override {
    return inner_.position(index, time);
  }
  StateVector state(std::size_t index, double time) const override {
    return inner_.state(index, time);
  }
  const KeplerElements& elements(std::size_t index) const override {
    return inner_.elements(index);
  }

 private:
  const Propagator& inner_;
};

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv,
                     {"sizes", "e2e-n", "span", "threshold", "repeats", "seed",
                      "json", "threads"});
  if (!args.unknown().empty()) {
    std::fprintf(stderr, "unknown option: %s\n", args.unknown().front().c_str());
    std::fprintf(stderr,
                 "known: --sizes a,b,c --e2e-n N --span S --threshold D "
                 "--repeats R --seed S --json PATH\n");
    return 2;
  }
  const std::vector<std::int64_t> sizes =
      args.get_int_list("sizes", {10'000, 100'000, 1'000'000});
  const auto e2e_n = static_cast<std::size_t>(args.get_int("e2e-n", 4000));
  const double span = args.get_double("span", 3600.0);
  const double threshold = args.get_double("threshold", 2.0);
  const std::int64_t repeats = args.get_int("repeats", 3);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  JsonBenchWriter json(args.get_string("json", ""));

  print_banner("Batched SoA propagation kernel: scalar vs batched",
               "INS phase inner loop (paper Section V-B/V-C)");

  const ContourKeplerSolver solver;
  bool all_equivalent = true;

  std::printf("%10s %8s %16s %12s %9s %14s\n", "n", "kernel", "[pos/s]", "[ns/sample]",
              "speedup", "max diff [km]");
  for (const std::int64_t n64 : sizes) {
    const auto n = static_cast<std::size_t>(n64);
    const auto sats = synthetic_population(n, seed);
    const TwoBodyPropagator prop(sats, solver);
    const Throughput t = measure(prop, repeats);

    const auto row = [&](const char* kernel, double pos_per_s, double diff) {
      std::printf("%10zu %8s %16.3e %12.1f %8.2fx %14.3e\n", n, kernel, pos_per_s,
                  1e9 / pos_per_s, pos_per_s / t.scalar_pos_per_s, diff);
    };
    row("scalar", t.scalar_pos_per_s, 0.0);
    row("batch", t.batch_pos_per_s, t.max_diff_km);
    row("warm", t.warm_pos_per_s, t.warm_max_diff_km);
    std::fflush(stdout);
    if (t.max_diff_km > 1e-12 || t.warm_max_diff_km > 1e-9) all_equivalent = false;

    json.record("micro_positions", n, "scalar", t.scalar_seconds, 0);
    json.record("micro_positions", n, "batch", t.batch_seconds, 0);
    json.record("micro_positions", n, "warm", t.warm_seconds, 0);
  }

  // End to end: the grid screener on the TwoBodyPropagator (batched
  // insertion kernel, warm-started) and on a forwarding propagator
  // (per-tuple virtual dispatch). Same conjunctions, different
  // insertion-phase time.
  std::printf("\nend-to-end grid screening, n=%zu, span=%.0f s:\n", e2e_n, span);
  const auto sats = generate_population({e2e_n, seed});
  const TwoBodyPropagator direct(sats, solver);
  const ForwardingPropagator forwarded(direct);
  const std::unique_ptr<Screener> screener = make_screener(Variant::kGrid);
  ScreeningConfig cfg;
  cfg.threshold_km = threshold;
  cfg.t_begin = 0.0;
  cfg.t_end = span;

  std::size_t conj_batch = 0, conj_scalar = 0;
  double batch_ins = 0.0, scalar_ins = 0.0;
  const double batch_secs = median_seconds(
      [&] {
        const ScreeningReport report = screener->screen(direct, cfg);
        conj_batch = report.conjunctions.size();
        batch_ins = report.timings.insertion;
      },
      repeats);
  const double scalar_secs = median_seconds(
      [&] {
        const ScreeningReport report = screener->screen(forwarded, cfg);
        conj_scalar = report.conjunctions.size();
        scalar_ins = report.timings.insertion;
      },
      repeats);

  std::printf("  batch : %8.3f s total, %8.3f s insertion (%zu conjunctions)\n",
              batch_secs, batch_ins, conj_batch);
  std::printf("  scalar: %8.3f s total, %8.3f s insertion (%zu conjunctions)\n",
              scalar_secs, scalar_ins, conj_scalar);
  std::printf("  insertion-phase ratio (scalar/batch) %.2fx\n", scalar_ins / batch_ins);
  std::printf("  end-to-end ratio %.2fx (the scalar arm also refines through\n"
              "  virtual dispatch, so this is not the insertion kernel alone)\n",
              scalar_secs / batch_secs);
  json.record("grid_e2e", e2e_n, "batch", batch_secs, conj_batch);
  json.record("grid_e2e", e2e_n, "scalar", scalar_secs, conj_scalar);

  if (conj_batch != conj_scalar) {
    std::fprintf(stderr, "FAIL: conjunction count differs between kernels\n");
    return 1;
  }
  if (!all_equivalent) {
    std::fprintf(stderr,
                 "FAIL: batch (warm) positions differ from scalar by more than 1e-12 km "
                 "(1e-9 km)\n");
    return 1;
  }
  std::printf("\nbatch/scalar positions agree to 1e-12 km, warm/scalar to 1e-9 km, "
              "on every size\n");
  return 0;
}
