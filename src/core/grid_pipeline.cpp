#include "core/grid_pipeline.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/exec.hpp"
#include "obs/telemetry.hpp"
#include "orbit/geometry.hpp"
#include "pca/refine.hpp"
#include "propagation/two_body.hpp"
#include "spatial/cell.hpp"
#include "spatial/cell_list.hpp"
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

/// Detection-funnel tallies of a scan: occupied cells (on a masked screen,
/// the cells its lookups hit), and the pairs tested and where each left
/// the funnel.
struct ScanTally {
  std::uint64_t occupied = 0, tested = 0, prefiltered = 0, reach_rejected = 0,
                emitted = 0;

  ScanTally& operator+=(const ScanTally& o) {
    occupied += o.occupied;
    tested += o.tested;
    prefiltered += o.prefiltered;
    reach_rejected += o.reach_rejected;
    emitted += o.emitted;
    return *this;
  }
};

/// A sample step: its global index and its time [s].
struct Sample {
  std::uint32_t step = 0;
  double time = 0.0;
};

/// An anomaly source for a step without solved anomalies: PairTest then
/// takes the states from Propagator::state().
const double* no_anomaly(std::uint32_t) { return nullptr; }

/// The distance prefilter and the reach test every pair found in
/// neighbouring cells goes through, on every path: the CPU's cell-list
/// sweep, the devicesim cell scan and the masked lookups. It decides and
/// tallies; the path stores the pairs it keeps. Both tests are symmetric
/// in a and b, so the order a path meets a pair in never matters.
struct PairTest {
  const Propagator& propagator;
  /// The concrete propagator whose caches turn a solved eccentric anomaly
  /// into a state (CPU batched kernel), otherwise nullptr.
  const TwoBodyPropagator* two_body;
  const double* vmax;  ///< per-satellite speed bound [km/s]
  /// Per-satellite perigee radius [km] when the propagator moves every
  /// satellite by two-body gravity alone, which the reach bound's tidal
  /// term needs; 0 otherwise, which leaves the term out.
  const double* perigee;
  double threshold_km;
  double half_sps;     ///< half the sample period [s]
  double cell_size;    ///< g_c [km], which sets refinement's search interval
  double t_begin;      ///< the span, which clamps that interval
  double t_end;

  /// Whether the pair (a, b) at sample time `t` is kept as a candidate;
  /// tallies where it leaves the funnel, or that it is emitted.
  /// `anomaly(i)` points to satellite i's eccentric anomaly at `t`, as this
  /// step's propagation solved it, or is nullptr where there is none (no
  /// TwoBodyPropagator, or devicesim); it is called only for a pair that
  /// passes the prefilter.
  template <typename Anomaly>
  bool operator()(std::uint32_t a, const Vec3& a_position, std::uint32_t b,
                  const Vec3& b_position, double t, const Anomaly& anomaly,
                  ScanTally& tally) const {
    ++tally.tested;
    // A pair farther apart than d + (v_max_a + v_max_b) * s/2 cannot reach
    // the threshold closer than half a sample from this step; the step
    // nearest its minimum keeps it.
    const double cutoff = threshold_km + half_sps * (vmax[a] + vmax[b]);
    if ((a_position - b_position).norm2() > cutoff * cutoff) {
      ++tally.prefiltered;
      return false;
    }
    return within_reach(a, b, t, anomaly, tally);
  }

  /// The reach test, for the few pairs that pass the prefilter. Kept out
  /// of line so that the scan loops around the prefilter stay small.
  template <typename Anomaly>
  [[gnu::noinline]] bool within_reach(std::uint32_t a, std::uint32_t b, double t,
                                      const Anomaly& anomaly, ScanTally& tally) const {
    // Refinement would search this candidate on an interval around the
    // sample time; a pair the reach bound keeps above the threshold there
    // is not emitted. An infinite acceleration bound (j2, tle, ephemeris)
    // rejects nothing, so no state is computed for it.
    const double accel = propagator.max_acceleration(a) + propagator.max_acceleration(b);
    if (accel < std::numeric_limits<double>::infinity() &&
        out_of_reach(state(a, t, anomaly(a)), state(b, t, anomaly(b)), accel,
                     std::min(perigee[a], perigee[b]), t, cell_size, threshold_km,
                     t_begin, t_end)) {
      ++tally.reach_rejected;
      return false;
    }
    ++tally.emitted;
    return true;
  }

  /// Satellite `sat`'s state at time `t`: from its solved anomaly when
  /// there is one, which costs no Kepler solve, otherwise from state().
  StateVector state(std::uint32_t sat, double t, const double* big_e) const {
    return big_e != nullptr ? detail::state_from_anomaly(two_body->cache(sat), *big_e)
                            : propagator.state(sat, t);
  }
};

/// The CD body of a devicesim full screen: the paper's scan of one slot of
/// a GridHashSet into its candidate buffer. (A CPU full screen sweeps a
/// CellList instead.)
struct CellScan {
  std::array<std::uint64_t, 14> half;  ///< cell_half_neighborhood(indexer)
  const PairTest& test;
  CandidateBuffer& candidates;

  /// Scans the cell in `slot` of `grid`, the grid of `sample`, against
  /// itself and its 13 forward neighbours. The other 13 neighbours
  /// hold this cell as a forward neighbour, so each pair of neighbouring
  /// cells is scanned once and each (pair, step) is emitted once: the paper
  /// scans all 26 and lets the conjunction hash map drop the second copy.
  /// Returns false when the candidate buffer is full.
  bool operator()(const GridHashSet& grid, std::size_t slot, Sample sample,
                  ScanTally& tally) const {
    const std::uint64_t key = grid.slot_key(slot);
    if (key == kEmptySlotKey) return true;

    const std::uint32_t head = grid.slot_head(slot);
    ScanTally cell;
    cell.occupied = 1;

    for (const std::uint64_t off : half) {
      const bool self = off == 0;
      const std::uint32_t other_head = self ? head : grid.find(key + off);
      if (other_head == kNoEntry) continue;
      for (std::uint32_t ea = head; ea != kNoEntry; ea = grid.entry(ea).next) {
        const GridEntry& a = grid.entry(ea);
        for (std::uint32_t eb = self ? a.next : other_head; eb != kNoEntry;
             eb = grid.entry(eb).next) {
          const GridEntry& b = grid.entry(eb);
          if (test(a.satellite, a.position, b.satellite, b.position, sample.time,
                   no_anomaly, cell) &&
              candidates.insert(a.satellite, b.satellite, sample.step) ==
                  CandidateBuffer::Insert::kFull) {
            return false;
          }
        }
      }
    }
    tally += cell;
    return true;
  }
};

/// The detection body of a masked screen (GridPipelineOptions::dirty_mask),
/// run by the CPU workers' phantom_step. Each dirty object is registered
/// in its home cell and the 26 cells around it (its "phantoms"); each
/// object then looks up its own home cell only, and finds there every
/// dirty object at Chebyshev cell distance <= 1 — the neighbour relation
/// of the full scan, restricted to pairs with a dirty member. Clean
/// objects are never inserted, so no clean-clean pair is ever tested.
struct PhantomScan {
  const CellIndexer& indexer;
  const PairTest& test;
  const std::uint8_t* dirty;                   ///< the dirty mask
  std::span<const std::uint32_t> dirty_objects;  ///< its set indices, ascending

  /// Where dirty object `satellite`'s anomaly is kept in `enrolled`, the
  /// step's anomalies in dirty_objects order.
  const double* enrolled_anomaly(const double* enrolled, std::uint32_t satellite) const {
    const auto it =
        std::lower_bound(dirty_objects.begin(), dirty_objects.end(), satellite);
    return enrolled + (it - dirty_objects.begin());
  }

  /// Registers dirty object `satellite` at `position` in its 27 cells.
  void enroll(GridHashSet& table, std::uint32_t satellite, const Vec3& position) const {
    const std::uint64_t home = indexer.key_of(position);
    for (std::int32_t dz = -1; dz <= 1; ++dz) {
      for (std::int32_t dy = -1; dy <= 1; ++dy) {
        for (std::int32_t dx = -1; dx <= 1; ++dx) {
          const std::uint64_t cell = home + indexer.neighbor_offset(dx, dy, dz);
          if (!table.insert(cell, satellite, position)) {
            throw std::logic_error("run_grid_pipeline: phantom table overflow "
                                   "(invariant violation: 27 entries per dirty object)");
          }
        }
      }
    }
  }

  /// Tests object `satellite` at `position` against the dirty objects
  /// registered in its home cell, at `sample`, and appends the keys it
  /// keeps to `keys`. `big_e` points to its anomaly and `enrolled` to the
  /// dirty objects' (enrolled_anomaly), both at the sample time, or both
  /// are nullptr.
  void lookup(const GridHashSet& table, std::uint32_t satellite, const Vec3& position,
              Sample sample, const double* big_e, const double* enrolled,
              std::vector<std::uint64_t>& keys, ScanTally& tally) const {
    const std::uint32_t head = table.find(indexer.key_of(position));
    if (head == kNoEntry) return;
    ScanTally cell;
    cell.occupied = 1;
    // Only a dirty object finds itself, and it finds every dirty
    // neighbour whose lookup finds it too: it keeps the pairs with the
    // higher-indexed ones, so each (pair, step) is tested once.
    const bool self_dirty = dirty[satellite] != 0;
    const auto anomaly = [&](std::uint32_t sat) -> const double* {
      if (big_e == nullptr) return nullptr;
      return sat == satellite ? big_e : enrolled_anomaly(enrolled, sat);
    };
    for (std::uint32_t e = head; e != kNoEntry; e = table.entry(e).next) {
      const GridEntry& d = table.entry(e);
      if (self_dirty && d.satellite <= satellite) continue;
      if (test(d.satellite, d.position, satellite, position, sample.time, anomaly, cell))
          [[unlikely]] {
        keys.push_back(pack_candidate(d.satellite, satellite, sample.step));
      }
    }
    tally += cell;
  }
};

/// The INS body for one (sample, satellite) tuple of a devicesim full
/// screen.
void insert_sample(GridHashSet& grid, const CellIndexer& indexer,
                   std::size_t satellite, const Vec3& position) {
  if (!grid.insert(indexer.key_of(position), static_cast<std::uint32_t>(satellite),
                   position)) {
    throw std::logic_error("run_grid_pipeline: grid hash set overflow "
                           "(invariant violation: one entry per satellite)");
  }
}

/// What every round reads.
struct RoundInputs {
  const Propagator& propagator;
  /// The concrete SoA propagator for the batched kernel (CPU backend with a
  /// TwoBodyPropagator), otherwise nullptr.
  const TwoBodyPropagator* batch_propagator;
  const ScreeningConfig& config;
  const GridPipelineResult& result;
  const CellIndexer& indexer;
  const PairTest& test;
  /// Set for a masked screen, whose steps go through the phantom table
  /// instead of a cell list.
  const PhantomScan* phantom;
  /// The per-step tables: on the CPU one cell list per worker for a full
  /// screen (`grids` empty) and one phantom table per worker when masked
  /// (`lists` empty); on devicesim one grid per step of a round.
  std::vector<GridHashSet>& grids;
  std::vector<CellList>& lists;
  /// With the batched kernel on the CPU, n warm-start eccentric anomalies
  /// per worker (worker w's at w * n); otherwise empty.
  std::span<double> anomalies;
  /// On the CPU, one list per worker of the candidate keys its steps keep,
  /// and the round's keys joined; both reused from round to round.
  std::vector<std::vector<std::uint64_t>>& worker_keys;
  std::vector<std::uint64_t>& round_keys;

  double sample_time(std::size_t step) const {
    return result.sample_time(step, config.t_begin, config.t_end);
  }

  /// Positions of satellites [begin, end) at time `t`, through the batched
  /// kernel when there is one. Its eccentric anomalies are in `big_e`
  /// (indexed from `begin`): solved cold when `dt` is 0, on the first step
  /// of a run, and advanced from the previous step, `dt` earlier,
  /// otherwise. Either way `big_e` then holds the anomalies at `t`, which
  /// the step's pair tests turn into states.
  void positions(double t, double dt, std::size_t begin, std::size_t end, Vec3* out,
                 double* big_e) const {
    if (batch_propagator == nullptr) {
      for (std::size_t sat = begin; sat < end; ++sat) {
        out[sat - begin] = propagator.position(sat, t);
      }
    } else if (dt == 0.0) {
      batch_propagator->positions_at(t, begin, end, out, big_e);
    } else {
      batch_propagator->positions_warm(t, dt, begin, end, big_e, out);
    }
  }
};

/// One round: its funnel tallies, the seconds of its table clears, INS and
/// CD, and its candidate keys, each once, valid until the next round.
struct RoundWork {
  ScanTally tally;
  double clear_seconds = 0.0;
  double insertion_seconds = 0.0;
  double detection_seconds = 0.0;
  std::span<const std::uint64_t> keys;
};

/// Satellites a masked CPU step propagates at a time.
constexpr std::size_t kChunk = 256;

/// CPU, one step of a full screen through the worker's cell list:
/// propagate every satellite and sort the step by cell (INS), then sweep
/// the cells while the list is still in the worker's cache (CD), appending
/// the keys it keeps to `keys`. Every pair the sweep meets goes through the
/// same PairTest as on the grid, so the step's candidates are exactly the
/// grid's. `dt` and `big_e` are the warm start of RoundInputs::positions;
/// after the build `big_e` holds every satellite's anomaly at this step.
void full_step(const RoundInputs& in, CellList& list, std::size_t step, double dt,
               double* big_e, std::vector<std::uint64_t>& keys, RoundWork& part,
               Stopwatch& clock) {
  const std::size_t n = in.propagator.size();
  const double t = in.sample_time(step);
  list.build(n, [&](std::size_t begin, std::size_t end, Vec3* out) {
    in.positions(t, dt, begin, end, out, big_e == nullptr ? nullptr : big_e + begin);
  });
  obs::count_unprobed_inserts(n);
  part.insertion_seconds += clock.lap();

  const auto step_key = static_cast<std::uint32_t>(step);
  const PairTest& test = in.test;
  const auto anomaly = [big_e](std::uint32_t sat) {
    return big_e == nullptr ? nullptr : big_e + sat;
  };
  // Few pairs are kept: the append stays off the sweep's hot path.
  list.sweep(
      [&](std::uint32_t a, const Vec3& a_position, std::uint32_t b, const Vec3& b_position) {
        if (test(a, a_position, b, b_position, t, anomaly, part.tally)) [[unlikely]] {
          keys.push_back(pack_candidate(a, b, step_key));
        }
      },
      part.tally.occupied);
  part.detection_seconds += clock.lap();
}

/// CPU, one step of a masked screen through the worker's phantom table:
/// clear it, register the dirty objects, then propagate every satellite
/// chunk by chunk and look each one up, appending the keys it keeps to
/// `keys`. Propagation counts as INS, lookups as CD. `dt` and `big_e` are
/// the warm start of RoundInputs::positions; `enrolled` (k entries, set
/// with `big_e`) receives the dirty objects' anomalies at this step as they
/// are registered, since a lookup may meet a dirty object before the chunk
/// loop reaches it.
void phantom_step(const RoundInputs& in, GridHashSet& table, std::size_t step, double dt,
                  double* big_e, double* enrolled, std::vector<std::uint64_t>& keys,
                  RoundWork& part, Stopwatch& clock) {
  const PhantomScan& phantom = *in.phantom;
  const std::size_t n = in.propagator.size();
  const double t = in.sample_time(step);
  table.clear();
  part.clear_seconds += clock.lap();
  for (std::size_t r = 0; r < phantom.dirty_objects.size(); ++r) {
    const std::uint32_t sat = phantom.dirty_objects[r];
    // A copy of the warm state: the chunk loop below advances it, and
    // computes this same position and anomaly there.
    double sat_e = big_e == nullptr ? 0.0 : big_e[sat];
    Vec3 position;
    in.positions(t, dt, sat, sat + 1, &position, &sat_e);
    if (enrolled != nullptr) enrolled[r] = sat_e;
    phantom.enroll(table, sat, position);
  }
  part.insertion_seconds += clock.lap();

  const Sample sample{static_cast<std::uint32_t>(step), t};
  Vec3 positions[kChunk];
  for (std::size_t sat0 = 0; sat0 < n; sat0 += kChunk) {
    const std::size_t end = std::min(n, sat0 + kChunk);
    in.positions(t, dt, sat0, end, positions, big_e == nullptr ? nullptr : big_e + sat0);
    part.insertion_seconds += clock.lap();
    for (std::size_t sat = sat0; sat < end; ++sat) {
      phantom.lookup(table, static_cast<std::uint32_t>(sat), positions[sat - sat0], sample,
                     big_e == nullptr ? nullptr : big_e + sat, enrolled, keys, part.tally);
    }
    part.detection_seconds += clock.lap();
  }
}

/// CPU round: each worker owns one cell list (a phantom table when masked),
/// the warm-start anomalies and a list of candidate keys, and runs whole
/// sample steps through them, taking the next of the round's
/// warm_runs(steps) runs until none is left. No two workers share a step,
/// so no key is found twice; the workers' lists are joined after the round.
/// Phase seconds are the workers' summed seconds divided by the number of
/// workers.
RoundWork fused_round(const RoundInputs& in, std::size_t step0, std::size_t steps) {
  const std::size_t workers = in.worker_keys.size();
  const std::size_t n = in.propagator.size();
  const std::size_t runs = warm_runs(steps);

  std::vector<RoundWork> parts(workers);
  std::atomic<std::size_t> next{0};
  pool_of(in.config).run_on_all([&](std::size_t w) {
    if (w >= workers) return;
    double* big_e = in.anomalies.empty() ? nullptr : in.anomalies.data() + w * n;
    std::vector<double> enrolled(
        big_e != nullptr && in.phantom != nullptr ? in.phantom->dirty_objects.size() : 0);
    // Worked on locally, like the tallies, so no two workers write one
    // cache line.
    std::vector<std::uint64_t> keys = std::move(in.worker_keys[w]);
    keys.clear();
    RoundWork part;
    Stopwatch clock;
    for (std::size_t run; (run = next.fetch_add(1, std::memory_order_relaxed)) < runs;) {
      const std::size_t first = step0 + run * steps / runs;
      const std::size_t last = step0 + (run + 1) * steps / runs;
      // Every step writes its anomalies, a run's last one included: the
      // step's pair tests read them.
      for (std::size_t step = first; step < last; ++step) {
        const double dt =
            step == first ? 0.0 : in.sample_time(step) - in.sample_time(step - 1);
        if (in.phantom == nullptr) {
          full_step(in, in.lists[w], step, dt, big_e, keys, part, clock);
        } else {
          phantom_step(in, in.grids[w], step, dt, big_e,
                       enrolled.empty() ? nullptr : enrolled.data(), keys, part, clock);
        }
      }
    }
    parts[w] = part;
    in.worker_keys[w] = std::move(keys);
  });

  RoundWork round;
  in.round_keys.clear();
  for (std::size_t w = 0; w < workers; ++w) {
    round.tally += parts[w].tally;
    round.clear_seconds += parts[w].clear_seconds;
    round.insertion_seconds += parts[w].insertion_seconds;
    round.detection_seconds += parts[w].detection_seconds;
    in.round_keys.insert(in.round_keys.end(), in.worker_keys[w].begin(),
                         in.worker_keys[w].end());
  }
  const double share = 1.0 / static_cast<double>(workers);
  round.clear_seconds *= share;
  round.insertion_seconds *= share;
  round.detection_seconds *= share;
  round.keys = in.round_keys;
  return round;
}

/// devicesim round, the paper's decomposition: one grid per step, an INS
/// kernel with one thread per (sample, satellite) tuple, each calling
/// position(), then a CD kernel with one thread per (sample, slot) that
/// appends to `candidates`. When the candidate buffer fills, `grow()`
/// doubles it and the CD kernel re-runs: the grids still hold the round.
template <class Grow>
RoundWork device_round(const RoundInputs& in, CandidateBuffer& candidates,
                       std::size_t step0, std::size_t steps, const Grow& grow) {
  RoundWork round;
  const std::size_t n = in.propagator.size();
  Stopwatch watch;
  pool_of(in.config).parallel_for(steps, [&](std::size_t g) { in.grids[g].clear(); },
                                  /*grain=*/1);
  round.clear_seconds = watch.lap();
  execute(in.config, steps * n, [&](std::size_t idx) {
    const std::size_t local = idx / n;
    const std::size_t sat = idx % n;
    insert_sample(in.grids[local], in.indexer, sat,
                  in.propagator.position(sat, in.sample_time(step0 + local)));
  });
  round.insertion_seconds = watch.lap();

  const CellScan scan{cell_half_neighborhood(in.indexer), in.test, candidates};
  const std::size_t slots = in.grids.front().slot_count();
  for (bool full = true; full;) {
    candidates.clear();
    round.tally = {};
    std::atomic<bool> overflow{false};
    std::mutex tally_mutex;
    execute(in.config, steps * slots, [&](std::size_t idx) {
      const std::size_t local = idx / slots;
      const Sample sample{static_cast<std::uint32_t>(step0 + local),
                          in.sample_time(step0 + local)};
      ScanTally cell;
      if (!scan(in.grids[local], idx % slots, sample, cell)) {
        overflow.store(true, std::memory_order_relaxed);
      }
      if (cell.occupied != 0 && obs::enabled()) {
        const std::lock_guard<std::mutex> lock(tally_mutex);
        round.tally += cell;
      }
    });
    round.detection_seconds += watch.lap();
    full = overflow.load();
    if (full) grow();
  }
  round.keys = candidates.keys();
  return round;
}

}  // namespace

GridPipelineResult run_grid_pipeline(const Propagator& propagator,
                                     const ScreeningConfig& config,
                                     const ConjunctionCountModel& count_model,
                                     const GridPipelineOptions& options,
                                     const GridRoundSink& sink) {
  GridPipelineResult result;

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

  const bool masked = !options.dirty_mask.empty();
  if (masked && options.dirty_mask.size() != n) {
    throw std::invalid_argument(
        "run_grid_pipeline: dirty_mask size does not match the population");
  }
  if (masked && device != nullptr) {
    throw std::invalid_argument("run_grid_pipeline: a masked screen runs on the CPU only");
  }
  // A masked screen's detection table holds 27 entries per dirty object
  // (PhantomScan); a full screen's one per satellite, in a cell list on
  // the CPU and in the paper's grid on devicesim.
  std::vector<std::uint32_t> dirty_objects;
  for (std::size_t i = 0; masked && i < n; ++i) {
    if (options.dirty_mask[i] != 0) dirty_objects.push_back(static_cast<std::uint32_t>(i));
  }
  const bool cell_lists = device == nullptr && !masked;
  // The batched propagation kernel, and with it the warm start, needs the
  // concrete SoA propagator and runs on the CPU backend only.
  const auto* batch_propagator =
      device == nullptr ? dynamic_cast<const TwoBodyPropagator*>(&propagator) : nullptr;
  const std::size_t table_entries =
      masked ? std::max<std::size_t>(27 * dirty_objects.size(), 1) : n;

  // Sizing (Section V-B): the sample parallelism p from the budget the
  // fixed data leave to the per-step tables. Where keys outlive a round,
  // in devicesim's candidate buffer (the paper's conjunction hash map) or
  // in a sink that keeps the whole span's (hybrid), a_ch is reserved from
  // the Extra-P count model first, and when it busts the budget the
  // automatic s_ps reduction of Section V-C (the paper's Fig. 10c regime)
  // samples more finely. Otherwise the CPU workers' key lists hold one
  // round at a time: the plan covers the tables it allocates at the
  // config's s_ps and reserves nothing for keys.
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
  request.grid_entries = cell_lists ? 0 : table_entries;
  request.warm_start = batch_propagator != nullptr;
  if (device != nullptr || options.sink_keeps_keys) {
    const AutoAdjustResult adjusted =
        auto_adjust_sps(count_model, request, config.threshold_km);
    if (!adjusted.feasible) {
      throw MemoryBudgetExceeded(
          "run_grid_pipeline: population does not fit into the memory budget "
          "even at 1 s sampling");
    }
    check_step_keys(adjusted.seconds_per_sample);
    request.seconds_per_sample = adjusted.seconds_per_sample;
    request.candidate_capacity = adjusted.candidate_capacity;
  }
  result.plan = plan_samples(request);
  if (!result.plan.fits) {
    throw MemoryBudgetExceeded(
        "run_grid_pipeline: one sample step's table does not fit into the memory budget");
  }
  result.sample_period = request.seconds_per_sample;
  result.cell_size = options.cell_size_override > 0.0
                         ? options.cell_size_override
                         : grid_cell_size(config.threshold_km, result.sample_period);

  const CellIndexer indexer(result.cell_size);
  const std::size_t p = result.plan.parallel_samples;
  const std::size_t total_steps = result.plan.total_samples;

  // Step 1 (allocation): the per-step tables, the candidate storage, and
  // the per-satellite speed bounds used by the distance prefilter.
  // devicesim holds one grid per step of a round (p) and the paper's
  // candidate buffer; on the CPU each worker owns one cell list (phantom
  // table when masked), a list of candidate keys and, with the batched
  // kernel, n warm-start anomalies, so min(p, workers) of each are
  // enough. Every hash table is cleared before a step is inserted into it;
  // a cell list is simply rebuilt.
  const std::size_t table_count =
      device != nullptr ? p : std::min(p, pool_of(config).thread_count());
  std::vector<GridHashSet> grids;
  std::vector<CellList> lists;
  if (cell_lists) {
    lists.reserve(table_count);
    while (lists.size() < table_count) lists.emplace_back(indexer, n);
    for (const CellList& l : lists) result.grid_memory_bytes += l.memory_bytes();
  } else {
    grids.reserve(table_count);
    while (grids.size() < table_count) grids.emplace_back(table_entries);
    for (const GridHashSet& g : grids) result.grid_memory_bytes += g.memory_bytes();
  }
  std::vector<double> anomalies(batch_propagator != nullptr ? table_count * n : 0);
  result.grid_memory_bytes += anomalies.size() * sizeof(double);
  std::vector<std::vector<std::uint64_t>> worker_keys(device != nullptr ? 0 : table_count);
  std::vector<std::uint64_t> round_keys;

  // Only a satellite on its fixed Kepler ellipse moves by two-body
  // gravity alone, which the reach bound's tidal term assumes.
  std::vector<double> vmax(n), perigee(n);
  const bool two_body_gravity = propagator.fixed_elements();
  pool_of(config).parallel_for(n, [&](std::size_t i) {
    const KeplerElements& el = propagator.elements(i);
    vmax[i] = max_speed(el);
    perigee[i] = two_body_gravity ? perigee_radius(el) : 0.0;
  });

  // Device mode: account the fixed data, grids and candidate buffer against
  // the simulated device memory and model the upload of the propagation
  // cache (the paper reports ~3% of GPU time in allocation + transfers).
  // The buffer grows when a round fills it; the plan reserved no device
  // memory for that.
  std::optional<CandidateBuffer> candidates;
  std::optional<DeviceBuffer<std::byte>> dev_fixed, dev_grids, dev_cands;
  if (device != nullptr) {
    const std::size_t fixed = n * (kSatelliteBytes + kKeplerCacheBytes);
    dev_fixed = device->alloc<std::byte>(fixed);
    simulate_upload(*device, *dev_fixed, fixed);
    dev_grids = device->alloc<std::byte>(result.grid_memory_bytes);
    candidates.emplace(request.candidate_capacity);
    dev_cands = device->alloc<std::byte>(candidates->memory_bytes());
  }
  const auto grow = [&] {
    candidates->grow();
    ++result.candidate_set_growths;
    obs::count(obs::Counter::kCandidateSetGrowths);
    dev_cands.reset();  // release before re-accounting the doubled buffer
    if (candidates->memory_bytes() > device->memory_free()) {
      throw MemoryBudgetExceeded(
          "run_grid_pipeline: the grown candidate buffer needs " +
          std::to_string(candidates->memory_bytes()) + " B of device memory, " +
          std::to_string(device->memory_free()) + " B free");
    }
    dev_cands = device->alloc<std::byte>(candidates->memory_bytes());
  };

  result.allocation_seconds = alloc_watch.seconds();

  const PairTest test{propagator,          batch_propagator,
                      vmax.data(),         perigee.data(),
                      config.threshold_km, 0.5 * result.sample_period,
                      result.cell_size,    config.t_begin,
                      config.t_end};
  const PhantomScan phantom{indexer, test, options.dirty_mask.data(), dirty_objects};
  const RoundInputs inputs{propagator, batch_propagator, config,  result,
                           indexer,    test,             masked ? &phantom : nullptr,
                           grids,      lists,            anomalies, worker_keys,
                           round_keys};
  // Per step, a CPU full screen sweeps its n list entries, a masked one
  // looks up each of the n satellites once, and a devicesim full screen
  // scans every slot of its grid.
  const std::size_t scanned_per_step = cell_lists || masked ? n : grids.front().slot_count();

  // Step 2 (INS + CD), round by round. Each round's keys go to the sink,
  // then the storage is reused for the next round; a (pair, step) key can
  // only be produced by the round owning that step. The funnel tallies
  // keep the conservation invariant (tested == prefiltered +
  // reach_rejected + emitted; no clean-clean pair is ever tested, so
  // kPairsMaskedClean stays 0) exact: devicesim counts only the CD run
  // that fitted its buffer.
  std::size_t largest_round = 0;
  for (std::size_t round = 0; round < result.plan.rounds; ++round) {
    const std::size_t step0 = round * p;
    const std::size_t steps = std::min(p, total_steps - step0);
    const RoundWork work = device == nullptr
                               ? fused_round(inputs, step0, steps)
                               : device_round(inputs, *candidates, step0, steps, grow);
    result.allocation_seconds += work.clear_seconds;
    result.insertion_seconds += work.insertion_seconds;
    result.detection_seconds += work.detection_seconds;
    obs::add_seconds(obs::Counter::kTimeInsertionNs, work.insertion_seconds);
    obs::add_seconds(obs::Counter::kTimeDetectionNs, work.detection_seconds);
    if (obs::enabled()) {
      obs::count(obs::Counter::kSamplesPropagated, steps * n);
      obs::count(obs::Counter::kCellsScanned, steps * scanned_per_step);
      obs::count(obs::Counter::kCellsOccupied, work.tally.occupied);
      obs::count(obs::Counter::kPairsTested, work.tally.tested);
      obs::count(obs::Counter::kPairsPrefiltered, work.tally.prefiltered);
      obs::count(obs::Counter::kPairsReachRejected, work.tally.reach_rejected);
      obs::count(obs::Counter::kCandidatesEmitted, work.tally.emitted);
    }
    result.total_candidates += work.keys.size();
    largest_round = std::max(largest_round, work.keys.size());
    sink(round, work.keys, result);
  }

  // On the CPU the largest round's keys were held twice: in the workers'
  // lists and joined.
  result.candidate_memory_bytes = candidates ? candidates->memory_bytes()
                                             : 2 * largest_round * sizeof(std::uint64_t);
  return result;
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
  report.stats.candidate_set_growths = pipeline.candidate_set_growths;
  report.stats.grid_memory_bytes = pipeline.grid_memory_bytes;
  report.stats.candidate_memory_bytes = pipeline.candidate_memory_bytes;
}

}  // namespace scod
