#include "core/grid_pipeline.hpp"

#include <atomic>
#include <cmath>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <vector>

#include "core/context.hpp"
#include "core/exec.hpp"
#include "obs/telemetry.hpp"
#include "orbit/geometry.hpp"
#include "propagation/two_body.hpp"
#include "spatial/cell.hpp"
#include "spatial/grid_hash_set.hpp"
#include "util/stopwatch.hpp"

namespace scod {

using detail::execute;
using detail::pool_of;

namespace {

/// Simulates the host->device upload of `bytes` of propagation data with
/// real (chunked) copies so the transfer accounting reflects actual bytes.
void simulate_upload(Device& device, DeviceBuffer<std::byte>& dst, std::size_t bytes) {
  static constexpr std::size_t kChunk = 1 << 20;
  std::vector<std::byte> staging(std::min(bytes, kChunk));
  std::size_t offset = 0;
  while (offset < bytes) {
    const std::size_t n = std::min(kChunk, bytes - offset);
    // The staging buffer stands in for the Kepler-solver cache slice; the
    // copy itself and its byte count are real.
    device.copy_to_device(dst, staging.data(), n);
    offset += n;
  }
}

GridPipelineResult run_pipeline_impl(const Propagator& propagator,
                                     const ScreeningConfig& caller_config,
                                     const ConjunctionCountModel& count_model,
                                     const GridPipelineOptions& options,
                                     ScreeningContext& context,
                                     const GridRoundSink* sink) {
  GridPipelineResult result;

  ScreeningContext::Use use(context);
  const ScreeningConfig config = context.apply(caller_config);

  Stopwatch alloc_watch;

  const std::size_t n = propagator.size();
  if (n < 2) return result;
  if (!(config.t_begin < config.t_end)) {
    throw std::invalid_argument("run_grid_pipeline: empty time span");
  }
  if (!(config.seconds_per_sample > 0.0)) {
    throw std::invalid_argument("run_grid_pipeline: seconds_per_sample must be > 0");
  }
  // Candidate keys hold 20-bit satellite indices (pack_candidate).
  if (n > (std::size_t{1} << kCandidateSatelliteBits)) {
    throw std::invalid_argument(
        "run_grid_pipeline: more than 2^20 satellites (the candidate key limit)");
  }

  Device* device = config.device;
  const std::uint64_t budget =
      device != nullptr ? device->memory_free() : config.memory_budget;

  if (!options.dirty_mask.empty() && options.dirty_mask.size() != n) {
    throw std::invalid_argument(
        "run_grid_pipeline: dirty_mask size does not match the population");
  }
  const std::uint8_t* dirty = options.dirty_mask.empty()
                                  ? nullptr
                                  : options.dirty_mask.data();

  // The batched insertion kernel needs the concrete SoA propagator and
  // runs on the CPU backend only.
  const auto* batch_propagator =
      device == nullptr ? dynamic_cast<const TwoBodyPropagator*>(&propagator)
                        : nullptr;

  // Sizing (Section V-B): candidate capacity from the Extra-P model, then
  // the sample parallelism p from the remaining budget. The automatic
  // s_ps reduction kicks in when the conjunction map alone busts the
  // budget (the paper's Fig. 10c regime).
  //
  // Candidate keys hold 24-bit sample steps. The step count is checked in
  // floating point before sizing, where a huge span would overflow the
  // integer counts, and again for the s_ps the automatic adjustment picks.
  const auto check_step_keys = [&config](double sps) {
    if (std::ceil(config.span_seconds() / sps) + 1.0 >
        static_cast<double>(std::size_t{1} << kCandidateStepBits)) {
      throw std::invalid_argument(
          "run_grid_pipeline: more than 2^24 sample steps (the candidate key limit)");
    }
  };
  check_step_keys(config.seconds_per_sample);

  SizingRequest request;
  request.satellites = n;
  request.span_seconds = config.span_seconds();
  request.seconds_per_sample = config.seconds_per_sample;
  request.memory_budget = budget;

  const AutoAdjustResult adjusted =
      auto_adjust_sps(count_model, request, config.threshold_km);
  if (!adjusted.feasible) {
    throw std::runtime_error(
        "run_grid_pipeline: population does not fit into the memory budget "
        "even at 1 s sampling");
  }
  const double sps = adjusted.seconds_per_sample;
  check_step_keys(sps);
  request.seconds_per_sample = sps;
  request.candidate_capacity = adjusted.candidate_capacity;
  result.plan = plan_samples(request);
  result.sample_period = sps;
  result.cell_size = options.cell_size_override > 0.0
                         ? options.cell_size_override
                         : grid_cell_size(config.threshold_km, sps);

  const CellIndexer indexer(result.cell_size);
  const std::size_t p = result.plan.parallel_samples;
  const std::size_t total_steps = result.plan.total_samples;

  // Step 1 (allocation): p per-step grids, the candidate set, and the
  // per-satellite speed bounds used by the distance prefilter — checked
  // out of the arena at exactly the sizes a cold screen would allocate.
  // Carried-over grids still hold the previous screen's entries; reset
  // them here, on the worker pool, like the between-rounds clears below.
  ScratchArena& arena = context.arena();
  const ScratchArena::GridCheckout grid_checkout = arena.grids(p, n);
  std::vector<GridHashSet>& grids = *grid_checkout.grids;
  pool_of(config).parallel_for(
      grid_checkout.reused, [&](std::size_t g) { grids[g].clear(); },
      /*grain=*/1);
  CandidateSet& candidates = arena.candidates(request.candidate_capacity);

  std::vector<double>& vmax = arena.vmax(n);
  pool_of(config).parallel_for(n, [&](std::size_t i) {
    vmax[i] = max_speed(propagator.elements(i));
  });

  for (const GridHashSet& g : grids) result.grid_memory_bytes += g.memory_bytes();
  result.candidate_memory_bytes = candidates.memory_bytes();

  // Device mode: account the fixed data, grids and candidate map against
  // the simulated device memory and model the upload of the propagation
  // cache (the paper reports ~3% of GPU time in allocation + transfers).
  std::optional<DeviceBuffer<std::byte>> dev_fixed, dev_grids, dev_cands;
  if (device != nullptr) {
    const std::size_t fixed = n * (kSatelliteBytes + kKeplerCacheBytes);
    dev_fixed = device->alloc<std::byte>(fixed);
    simulate_upload(*device, *dev_fixed, fixed);
    dev_grids = device->alloc<std::byte>(result.grid_memory_bytes);
    dev_cands = device->alloc<std::byte>(result.candidate_memory_bytes);
  }

  result.allocation_seconds = alloc_watch.seconds();

  const std::size_t slots = grids.front().slot_count();
  const auto& stencil = cell_half_neighborhood();
  const double half_sps = 0.5 * result.sample_period;

  for (std::size_t round = 0; round < result.plan.rounds; ++round) {
    const std::size_t step0 = round * p;
    const std::size_t steps = std::min(p, total_steps - step0);

    if (round > 0) {
      Stopwatch clear_watch;
      pool_of(config).parallel_for(steps, [&](std::size_t g) { grids[g].clear(); },
                                   /*grain=*/1);
      result.allocation_seconds += clear_watch.seconds();
    }

    // Step 2a (INS): one logical thread per (sample, satellite) tuple. With
    // a TwoBodyPropagator on the CPU backend the tuples are handed to
    // workers as ranges and propagated through the batched SoA kernel —
    // same positions, no per-tuple virtual dispatch. The devicesim backend
    // keeps the per-tuple kernel, mirroring the paper's GPU decomposition.
    Stopwatch ins_watch;
    std::atomic<std::size_t> insert_failures{0};
    if (batch_propagator != nullptr) {
      pool_of(config).parallel_for_ranges(steps * n, [&](std::size_t begin,
                                                         std::size_t end) {
        constexpr std::size_t kScratch = 256;
        Vec3 scratch[kScratch];
        std::size_t failures = 0;
        while (begin < end) {
          const std::size_t local = begin / n;
          const std::size_t sat0 = begin % n;
          const std::size_t run = std::min({end - begin, n - sat0, kScratch});
          const double t =
              result.sample_time(step0 + local, config.t_begin, config.t_end);
          batch_propagator->positions_at(t, sat0, sat0 + run, scratch);
          GridHashSet& grid = grids[local];
          for (std::size_t k = 0; k < run; ++k) {
            const Vec3& pos = scratch[k];
            if (!grid.insert(indexer.key_of(pos),
                             static_cast<std::uint32_t>(sat0 + k), pos)) {
              ++failures;
            }
          }
          begin += run;
        }
        if (failures != 0) {
          insert_failures.fetch_add(failures, std::memory_order_relaxed);
        }
      });
    } else {
      execute(config, steps * n, [&](std::size_t idx) {
        const std::size_t local = idx / n;
        const std::size_t sat = idx % n;
        const double t =
            result.sample_time(step0 + local, config.t_begin, config.t_end);
        const Vec3 pos = propagator.position(sat, t);
        if (!grids[local].insert(indexer.key_of(pos), static_cast<std::uint32_t>(sat),
                                 pos)) {
          insert_failures.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    if (insert_failures.load() != 0) {
      throw std::logic_error("run_grid_pipeline: grid hash set overflow "
                             "(invariant violation: one entry per satellite)");
    }
    const double ins_seconds = ins_watch.seconds();
    result.insertion_seconds += ins_seconds;
    obs::count(obs::Counter::kSamplesPropagated, steps * n);
    obs::add_seconds(obs::Counter::kTimeInsertionNs, ins_seconds);

    // Step 2b (CD): one logical thread per (sample, slot), scanning the
    // cell against itself and its 13 forward neighbours. The other 13
    // neighbours hold this cell as a forward neighbour, so each pair of
    // neighbouring cells is scanned once: the paper scans all 26 and lets
    // the conjunction hash map drop the second copy, which yields the same
    // distinct candidates. Retried with a grown candidate set if the
    // Extra-P sizing underestimated; the set keeps what the overflowed
    // attempt inserted, and the re-scan finds those again as duplicates.
    Stopwatch cd_watch;
    const std::size_t candidates_before = candidates.size();
    for (;;) {
      std::atomic<bool> overflow{false};
      // Funnel tallies for this attempt. Declared inside the retry loop so
      // an overflowed attempt is discarded wholesale: only the successful
      // scan is committed to telemetry below, which keeps the conservation
      // invariant (tested == masked + prefiltered + emitted + deduped)
      // exact even when the candidate set has to grow mid-round.
      std::atomic<std::uint64_t> cd_occupied{0}, cd_tested{0}, cd_masked{0},
          cd_prefiltered{0}, cd_emitted{0}, cd_duplicates{0};
      execute(config, steps * slots, [&](std::size_t idx) {
        const std::size_t local = idx / slots;
        const std::size_t slot = idx % slots;
        const GridHashSet& grid = grids[local];
        const std::uint64_t key = grid.slot_key(slot);
        if (key == kEmptySlotKey) return;

        const std::uint32_t step = static_cast<std::uint32_t>(step0 + local);
        const CellCoord coord = indexer.unpack(key);
        const std::uint32_t head = grid.slot_head(slot);
        std::uint64_t tested = 0, masked = 0, prefiltered = 0, emitted = 0,
                      duplicates = 0;

        for (const CellCoord& off : stencil) {
          const bool self = off == CellCoord{};
          std::uint32_t other_head;
          if (self) {
            other_head = head;
          } else {
            const CellCoord nc{coord.x + off.x, coord.y + off.y, coord.z + off.z};
            other_head = grid.find(indexer.pack(nc));
            if (other_head == kNoEntry) continue;
          }
          for (std::uint32_t ea = head; ea != kNoEntry; ea = grid.entry(ea).next) {
            const GridEntry& a = grid.entry(ea);
            const bool a_dirty = dirty == nullptr || dirty[a.satellite] != 0;
            for (std::uint32_t eb = self ? a.next : other_head; eb != kNoEntry;
                 eb = grid.entry(eb).next) {
              const GridEntry& b = grid.entry(eb);
              ++tested;
              // Incremental hook: a pair with no dirty member carries its
              // baseline conjunctions forward, so it never becomes a
              // candidate here (see GridPipelineOptions::dirty_mask).
              if (!a_dirty && dirty[b.satellite] == 0) {
                ++masked;
                continue;
              }
              // A pair farther apart than d + (v_max_a + v_max_b) * s/2
              // cannot reach the threshold closer than half a sample from
              // this step; the step nearest its minimum keeps it.
              const double cutoff = config.threshold_km +
                  half_sps * (vmax[a.satellite] + vmax[b.satellite]);
              if ((a.position - b.position).norm2() > cutoff * cutoff) {
                ++prefiltered;
                continue;
              }
              switch (candidates.insert(a.satellite, b.satellite, step)) {
                case CandidateSet::Insert::kInserted:
                  ++emitted;
                  break;
                case CandidateSet::Insert::kDuplicate:
                  ++duplicates;
                  break;
                case CandidateSet::Insert::kFull:
                  overflow.store(true, std::memory_order_relaxed);
                  break;
              }
            }
          }
        }
        if (obs::enabled()) {
          cd_occupied.fetch_add(1, std::memory_order_relaxed);
          cd_tested.fetch_add(tested, std::memory_order_relaxed);
          cd_masked.fetch_add(masked, std::memory_order_relaxed);
          cd_prefiltered.fetch_add(prefiltered, std::memory_order_relaxed);
          cd_emitted.fetch_add(emitted, std::memory_order_relaxed);
          cd_duplicates.fetch_add(duplicates, std::memory_order_relaxed);
        }
      });
      if (!overflow.load()) {
        if (obs::enabled()) {
          obs::count(obs::Counter::kCellsScanned, steps * slots);
          obs::count(obs::Counter::kCellsOccupied, cd_occupied.load());
          obs::count(obs::Counter::kPairsTested, cd_tested.load());
          obs::count(obs::Counter::kPairsMaskedClean, cd_masked.load());
          obs::count(obs::Counter::kPairsPrefiltered, cd_prefiltered.load());
          // A pair first inserted during an overflowed attempt survives the
          // grow (CandidateSet::grow rehashes in place), so the successful
          // re-scan classifies it as a duplicate. Report distinct inserts
          // from the set's own size delta and shift the remainder into the
          // dedup bucket: the per-attempt identity tested == masked +
          // prefiltered + emitted' + duplicates' is preserved exactly.
          const std::uint64_t distinct = candidates.size() - candidates_before;
          const std::uint64_t classified = cd_duplicates.load() + cd_emitted.load();
          obs::count(obs::Counter::kCandidatesEmitted, distinct);
          // classified < distinct only if telemetry was flipped on mid-scan;
          // saturate instead of wrapping in that degenerate case.
          obs::count(obs::Counter::kCandidatesDeduplicated,
                     classified > distinct ? classified - distinct : 0);
        }
        break;
      }
      candidates.grow();
      ++result.candidate_set_growths;
      obs::count(obs::Counter::kCandidateSetGrowths);
      if (device != nullptr) {
        dev_cands.reset();  // release before re-accounting the doubled map
        dev_cands = device->alloc<std::byte>(candidates.memory_bytes());
      }
    }
    const double cd_seconds = cd_watch.seconds();
    result.detection_seconds += cd_seconds;
    obs::add_seconds(obs::Counter::kTimeDetectionNs, cd_seconds);

    // Streaming mode: hand this round's candidates over and recycle the
    // set. A (pair, step) key can only be produced by the round owning
    // that step, so per-round draining changes nothing semantically.
    if (sink != nullptr) {
      std::vector<Candidate> drained = candidates.drain();
      result.total_candidates += drained.size();
      candidates.clear();
      (*sink)(round, std::move(drained), result);
    }
  }

  result.candidate_memory_bytes = candidates.memory_bytes();
  if (sink == nullptr) {
    result.candidates = candidates.drain();
    result.total_candidates = result.candidates.size();
  }
  return result;
}

}  // namespace

GridPipelineResult run_grid_pipeline(const Propagator& propagator,
                                     const ScreeningConfig& config,
                                     const ConjunctionCountModel& count_model,
                                     const GridPipelineOptions& options,
                                     ScreeningContext& context) {
  return run_pipeline_impl(propagator, config, count_model, options, context,
                           nullptr);
}

GridPipelineResult run_grid_pipeline_streaming(const Propagator& propagator,
                                               const ScreeningConfig& config,
                                               const ConjunctionCountModel& count_model,
                                               const GridPipelineOptions& options,
                                               ScreeningContext& context,
                                               const GridRoundSink& sink) {
  return run_pipeline_impl(propagator, config, count_model, options, context,
                           &sink);
}

void fill_pipeline_stats(ScreeningReport& report, std::size_t satellites,
                         const GridPipelineResult& pipeline) {
  report.timings.allocation += pipeline.allocation_seconds;
  report.timings.insertion = pipeline.insertion_seconds;
  report.timings.detection = pipeline.detection_seconds;
  report.stats.satellites = satellites;
  report.stats.total_samples = pipeline.plan.total_samples;
  report.stats.parallel_samples = pipeline.plan.parallel_samples;
  report.stats.rounds = pipeline.plan.rounds;
  report.stats.seconds_per_sample = pipeline.sample_period;
  report.stats.cell_size_km = pipeline.cell_size;
  report.stats.candidates = pipeline.total_candidates;
  report.stats.refinements = pipeline.total_candidates;
  report.stats.candidate_set_growths = pipeline.candidate_set_growths;
  report.stats.grid_memory_bytes = pipeline.grid_memory_bytes;
  report.stats.candidate_memory_bytes = pipeline.candidate_memory_bytes;
}

}  // namespace scod
