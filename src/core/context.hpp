#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/report.hpp"
#include "spatial/candidate_buffer.hpp"
#include "spatial/grid_hash_set.hpp"

namespace scod {

/// Reusable scratch buffers for the screening pipeline — the paper's step 1
/// ("memory allocation") made a checkout instead of a per-call allocation.
///
/// Every buffer is handed out reset to the state a fresh allocation would
/// have, at exactly the size the caller requested, so a screen borrowing
/// from the arena is bit-identical to one that allocates from scratch:
///  - grids are reused only when the entry capacity matches the
///    population exactly (a GridHashSet's slot count is a pure function of
///    its entry capacity), otherwise they are rebuilt;
///  - the candidate buffer is reused only when its capacity equals the
///    sizing plan's request — after an in-screen grow() the capacities
///    differ and the next checkout rebuilds at plan size, exactly
///    reproducing a cold screen's growth count;
///  - plain vectors are resized to the request and shrunk back when their
///    held capacity is grossly oversized for it (shrink-on-oversize), so a
///    one-off 100k screen does not pin 100k-sized buffers under a 1k
///    steady state.
///
/// Not thread-safe: one checkout sequence at a time (enforced by
/// ScreeningContext::Use). The buffers returned by a checkout stay valid
/// until the next checkout of the same buffer.
class ScratchArena {
 public:
  /// Reuse/rebuild tallies, for tests and the serve `stats` command.
  struct Stats {
    std::uint64_t grid_reuses = 0;        ///< grids handed out pre-built
    std::uint64_t grid_rebuilds = 0;      ///< grids constructed fresh
    std::uint64_t candidate_reuses = 0;
    std::uint64_t candidate_rebuilds = 0;
    std::uint64_t vector_shrinks = 0;     ///< oversized buffers released
  };

  /// Checks out `count` grids, each sized for exactly `entries`
  /// satellites. Grids cached with a different entry capacity are
  /// discarded and rebuilt (their slot tables would differ from a cold
  /// screen's); surplus grids beyond `count` are released. Carried-over
  /// grids still hold the previous screen's entries: the caller clears a
  /// grid before inserting into it (the pipeline does so before every
  /// step).
  std::vector<GridHashSet>& grids(std::size_t count, std::size_t entries);

  /// Checks out the candidate buffer at exactly `capacity` (cleared). A
  /// cached buffer whose capacity differs — smaller plan, or doubled by a
  /// previous screen's grow() — is rebuilt at the requested size.
  CandidateBuffer& candidates(std::size_t capacity);

  /// Per-satellite speed-bound table, resized to n (contents unspecified;
  /// the pipeline overwrites every element).
  std::vector<double>& vmax(std::size_t n);

  /// Refinement output slots, resized to n (contents unspecified; only
  /// slots flagged valid are ever read).
  std::vector<Conjunction>& conjunction_slots(std::size_t n);

  /// Refinement outcome flags, resized to n and zero-filled. A slot's
  /// flags hold kSearched when its Brent search ran and kSlotValid when
  /// its conjunction slot was written.
  std::vector<std::uint8_t>& valid_flags(std::size_t n);
  static constexpr std::uint8_t kSearched = 1;
  static constexpr std::uint8_t kSlotValid = 2;

  /// Approximate bytes currently held across all cached buffers.
  std::size_t memory_bytes() const;

  const Stats& stats() const { return stats_; }

  /// Drops every cached buffer (the cold-start state). The next screen
  /// re-allocates everything, exactly like a fresh arena.
  void release();

 private:
  template <typename T>
  std::vector<T>& checkout(std::vector<T>& buffer, std::size_t n);

  std::vector<GridHashSet> grids_;
  std::size_t grid_entries_ = 0;  ///< entry capacity the cached grids share
  std::optional<CandidateBuffer> candidates_;
  std::vector<double> vmax_;
  std::vector<Conjunction> conjunction_slots_;
  std::vector<std::uint8_t> valid_flags_;
  Stats stats_;
};

/// Long-lived state shared across screen() calls: the thread-pool binding,
/// the telemetry handle, and the scratch arena. Constructing one and
/// passing it to make_screener (or ScreeningService, which owns one) turns
/// repeat screens warm: the paper's step-1 allocation cost drops to a
/// reset while reports stay bit-identical (verified by test_context).
///
/// A context serves one screen at a time from one thread; nested
/// acquisition on the owning thread is fine (screen(span) delegates to
/// screen(propagator), grid refinement runs between rounds), concurrent
/// use from a second thread throws. Unrelated concurrent screens should
/// each use their own context — screeners without one behave exactly as
/// before, allocating per call.
class ScreeningContext {
 public:
  struct Options {
    /// Pool bound to screens run through this context when the per-call
    /// ScreeningConfig does not name one; nullptr keeps the process-global
    /// pool.
    ThreadPool* pool = nullptr;
    /// Telemetry handle: when true, obs counters are enabled for the
    /// duration of every screen run through this context (and restored
    /// afterwards). No-op in builds with SCOD_TELEMETRY=OFF.
    bool telemetry = false;
  };

  ScreeningContext() = default;
  explicit ScreeningContext(Options options) : options_(std::move(options)) {}

  ScreeningContext(const ScreeningContext&) = delete;
  ScreeningContext& operator=(const ScreeningContext&) = delete;

  ScratchArena& arena() { return arena_; }
  const ScratchArena& arena() const { return arena_; }
  const Options& options() const { return options_; }

  ThreadPool& pool() const {
    return options_.pool != nullptr ? *options_.pool : global_thread_pool();
  }

  /// Returns `config` with the context's pool bound, unless the caller
  /// already chose one (an explicit per-call pool always wins).
  ScreeningConfig apply(const ScreeningConfig& config) const {
    ScreeningConfig out = config;
    if (out.pool == nullptr && options_.pool != nullptr) out.pool = options_.pool;
    return out;
  }

  /// RAII guard a screen holds while borrowing from the context. Reentrant
  /// on the owning thread; throws std::logic_error when a second thread
  /// tries to screen through a context that is already in use.
  class Use {
   public:
    explicit Use(ScreeningContext& context);
    ~Use();

    Use(const Use&) = delete;
    Use& operator=(const Use&) = delete;

   private:
    ScreeningContext& context_;
  };

 private:
  Options options_;
  ScratchArena arena_;
  std::atomic<int> depth_{0};
  std::atomic<std::thread::id> owner_{};
  bool telemetry_was_enabled_ = false;  ///< outermost Use only; owner thread
};

namespace detail {

/// Bound-or-ephemeral context for one screen() call: screeners bind an
/// optional long-lived context; when none is bound each call runs against
/// a throwaway cold context, so the warm and cold paths are one code path.
class ContextLease {
 public:
  explicit ContextLease(ScreeningContext* bound) {
    if (bound == nullptr) bound = &ephemeral_.emplace();
    context_ = bound;
  }

  ScreeningContext* get() const { return context_; }
  ScreeningContext* operator->() const { return context_; }
  ScreeningContext& operator*() const { return *context_; }

 private:
  std::optional<ScreeningContext> ephemeral_;
  ScreeningContext* context_ = nullptr;
};

}  // namespace detail

}  // namespace scod
