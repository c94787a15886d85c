#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/config.hpp"
#include "core/report.hpp"
#include "model/conjunction_model.hpp"
#include "model/sizing.hpp"
#include "propagation/propagator.hpp"
#include "spatial/candidate_buffer.hpp"

namespace scod {

/// Most consecutive sample steps a CPU worker of the grid front end takes
/// at a time. With a TwoBodyPropagator the first step of a run solves
/// Kepler's equation cold and the others warm-start it from the step
/// before (TwoBodyPropagator::positions_warm).
inline constexpr std::size_t kWarmRun = 16;

/// The number of runs a CPU round is cut into is a multiple of this, so
/// that 1, 2, 4 or 8 workers share a round's runs evenly.
inline constexpr std::size_t kRunMultiple = 8;

/// Runs a CPU round of `steps` sample steps is cut into: the fewest
/// multiple of kRunMultiple that keeps every run within kWarmRun steps,
/// but no more than there are steps. Run j of a round starting at step0
/// covers [step0 + j * steps / runs, step0 + (j + 1) * steps / runs). The
/// cuts depend on the round alone, never on the thread count or on which
/// worker takes a run; a round shorter than kRunMultiple steps is one cold
/// step per run.
constexpr std::size_t warm_runs(std::size_t steps) {
  const std::size_t per_group = kRunMultiple * kWarmRun;
  return std::min(steps, kRunMultiple * ((steps + per_group - 1) / per_group));
}

/// Options of the shared grid front-end (steps 1-2 of Section III: memory
/// allocation, parallel propagation + insertion, parallel candidate
/// detection). The defaults screen every pair at the Eq. (1) cell size.
struct GridPipelineOptions {
  /// Incremental re-screening hook (src/service): when non-empty it must
  /// have one entry per satellite, and only candidate pairs with at least
  /// one marked ("dirty") member are emitted. Each step then registers the
  /// k dirty objects in their home cell and its 26 neighbours of a
  /// 27k-entry phantom table instead of inserting every satellite into a
  /// grid, and every satellite looks up its own cell there: the same
  /// neighbour relation and distance prefilter as a full screen, so the
  /// dirty-member candidates are exactly the full screen's. Clean-vs-clean
  /// pairs are never tested, because their conjunctions are unchanged from
  /// the cached baseline report. A masked screen runs on the CPU only;
  /// with config.device set it is refused. Empty (the default) screens
  /// every pair.
  std::span<const std::uint8_t> dirty_mask = {};
  /// The sink keeps every round's keys until the screen ends, as the
  /// hybrid screener's whole-span filters do. A CPU plan then reserves
  /// a_ch for them from the count model and lowers s_ps when that does not
  /// fit, as devicesim does for its buffer; otherwise it reserves nothing.
  bool sink_keeps_keys = false;
  /// Overrides the Eq. (1) cell size [km] when positive. ONLY for the
  /// worst-case ablation (bench_eq1_cellsize): cells smaller than Eq. (1)
  /// void the no-skip guarantee of Fig. 4.
  double cell_size_override = 0.0;
};

/// What the grid front-end reports besides its candidates, which go to
/// the round sink.
struct GridPipelineResult {
  std::size_t total_candidates = 0;  ///< count across all rounds
  double cell_size = 0.0;            ///< g_c [km]
  double sample_period = 0.0;        ///< s_ps used (lowered only where a_ch is reserved)
  SizingPlan plan;
  /// devicesim only: how often a round filled the candidate buffer, which
  /// then doubled. The CPU's per-worker key lists never fill.
  std::size_t candidate_set_growths = 0;
  std::uint64_t grid_memory_bytes = 0;
  /// The candidate-key storage the screen held: on the CPU the largest
  /// round's keys twice (in the workers' lists and joined for the sink),
  /// on devicesim the candidate buffer's final capacity.
  std::uint64_t candidate_memory_bytes = 0;
  double allocation_seconds = 0.0;
  double insertion_seconds = 0.0;
  double detection_seconds = 0.0;

  /// Wall-clock time of the sample step with global index `step`.
  double sample_time(std::size_t step, double t_begin, double t_end) const {
    const double t = t_begin + static_cast<double>(step) * sample_period;
    return t < t_end ? t : t_end;
  }
};

/// `config` with seconds_per_sample set to `fallback` when it is unset
/// (<= 0): how grid and hybrid apply their kDefaultSecondsPerSample.
inline ScreeningConfig with_sample_period(ScreeningConfig config, double fallback) {
  if (config.seconds_per_sample <= 0.0) config.seconds_per_sample = fallback;
  return config;
}

/// Per-round candidate sink. Receives the round index, the packed
/// (pair, step) keys (pack_candidate) detected in that round, each once and
/// in no particular order, and the pipeline result as populated so far
/// (cell_size, sample_period and plan are final before the first round).
/// The keys are a view of the round's candidate storage (the CPU workers'
/// lists joined, or devicesim's candidate buffer), valid only during the
/// call: the storage is reused for the next round when the sink returns. A
/// (pair, step) key can only occur in the round owning that step, so the
/// rounds together hold exactly the candidates of the whole span.
using GridRoundSink = std::function<void(
    std::size_t round, std::span<const std::uint64_t> keys,
    const GridPipelineResult& pipeline)>;

/// Thrown by run_grid_pipeline when even one per-step table (cell list,
/// grid or phantom table) does not fit into the memory budget (where a_ch
/// is reserved: beside it, even at 1 s sampling), and on devicesim when a
/// grown candidate buffer does not fit the free device memory.
class MemoryBudgetExceeded : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Runs the grid front-end over the whole span at config.seconds_per_sample
/// (must be > 0): plans the sample parallelism p from the memory budget
/// (device memory when config.device is set) the fixed data leave,
/// charging the detection table each step actually uses: an n-entry cell
/// list on the CPU, an n-entry grid on devicesim, or a 27k-entry phantom
/// table under a dirty mask of k objects. Where keys are held beyond one
/// round (devicesim's candidate buffer, or a sink that keeps every round,
/// GridPipelineOptions::sink_keeps_keys) it first reserves the candidate
/// memory a_ch from `count_model` (Eq. 3 for grid, Eq. 4 for hybrid) and,
/// when that does not fit, lowers s_ps (auto_adjust_sps, Section V-C);
/// otherwise the CPU reserves nothing for keys and keeps the config's
/// s_ps. It then screens the steps in rounds of p: each
/// step's satellites are propagated into the table, and every pair in
/// the same or neighbouring cells (each once) that passes the distance
/// prefilter and the reach test (out_of_reach, pca/refine.hpp, on the
/// pair's states at the sample: from the step's solved anomalies on the
/// CPU with a TwoBodyPropagator, from state() elsewhere, skipped when the
/// pair's max_acceleration is infinite, with the tidal term only when the
/// propagator's fixed_elements() holds) is kept as a candidate (a masked
/// step registers the dirty objects and looks every satellite up instead;
/// see GridPipelineOptions::dirty_mask). After every round its candidates
/// are handed to `sink` (the sink is called once per round, in round
/// order) and their storage is reused for the next round, so memory stays
/// bounded by one round's candidates regardless of the span length.
///
/// The two backends share the cell key and the pair test but not their
/// detection structure or execution shape:
///  - CPU: min(p, workers) cell lists, one per worker of the pool. A
///    worker takes the round's runs (warm_runs) one at a time and, step by
///    step, propagates every satellite into its list and sorts it by cell
///    (INS), and sweeps the list while it is still in its cache (CD); under
///    a mask it clears a phantom table, registers the dirty objects, then
///    propagates the satellites chunk by chunk and looks each one up. Each
///    worker appends the keys it keeps to its own list, which cannot fill;
///    the lists are joined after the round. A
///    TwoBodyPropagator goes through the batched SoA kernel, cold on a
///    run's first step and warm-started on the others (each worker keeps n
///    anomalies), any other propagator through position(). A round with
///    fewer runs than workers leaves the surplus workers idle.
///  - devicesim: the paper's decomposition, p hash grids and per round one
///    INS kernel (a thread per (sample, satellite) tuple, position() each)
///    and one CD kernel (a thread per (sample, slot)) appending to the
///    lock-free candidate buffer, the paper's conjunction hash map, sized
///    from the count model. If the model proves too small, the buffer
///    doubles and the CD kernel re-runs. It screens full screens only: a
///    masked screen runs on the CPU.
/// Positions, candidates and reports are bit-identical across thread
/// counts. Across backends and round shapes they are bit-identical except
/// for the warm-started CPU positions and states, which depend on where
/// the round's runs are cut and agree with position() within 1e-9 km: a
/// pair within that distance of the prefilter cutoff, a cell face or the
/// reach test's bound could be a candidate on one and not the other. Phase seconds on the CPU are the
/// workers' summed seconds divided by the number of workers; per-step
/// table clears count as allocation.
///
/// Throws std::invalid_argument when the population or the number of
/// sample steps exceeds what a candidate key can hold (2^20 satellites,
/// 2^24 steps) or when both config.device and a dirty mask are set, checked
/// before anything is allocated, and
/// MemoryBudgetExceeded when even a single per-step table does not fit
/// into the memory budget (beside a reserved a_ch at 1 s sampling), or
/// when on devicesim a grown candidate buffer does not fit the free device
/// memory.
GridPipelineResult run_grid_pipeline(const Propagator& propagator,
                                     const ScreeningConfig& config,
                                     const ConjunctionCountModel& count_model,
                                     const GridPipelineOptions& options,
                                     const GridRoundSink& sink);

/// Fills the report's allocation/INS/CD timings and the grid front-end's
/// stats (sampling plan, cell size, candidates, memory) from `pipeline`.
/// The variant sets refinements to the Brent searches it ran.
void fill_pipeline_stats(ScreeningReport& report, std::size_t satellites,
                         const GridPipelineResult& pipeline);

}  // namespace scod
