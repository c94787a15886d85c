#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "util/vec3.hpp"

namespace scod {

/// Sentinel for an unoccupied hash-map slot. "As a memory location can
/// never be truly empty, we use the maximum of a 64-bit value as a unique
/// value that indicates an empty slot" (paper, Section IV-A1).
inline constexpr std::uint64_t kEmptySlotKey = ~0ull;

/// Sentinel terminating a cell's singly-linked satellite list.
inline constexpr std::uint32_t kNoEntry = ~0u;

/// One element of a grid cell's singly-linked list (the paper's Fig. 6
/// "satellite entry"): the satellite's index, its ECI position at the
/// sample time, and the link to the next entry in the same cell.
struct GridEntry {
  Vec3 position;
  std::uint32_t satellite = 0;
  std::uint32_t next = kNoEntry;
};

/// Non-blocking fixed-size hash set representing one grid (= one sample
/// step) — the paper's central data structure (Section IV-A).
///
/// Layout: an open-addressed slot table (key = packed cell coordinate,
/// resolved with MurMur3 + linear probing, claimed with an atomic CAS) and
/// a pre-allocated entry pool with one entry per satellite ("each satellite
/// produces exactly one of these entries, so we can allocate them in
/// advance"). Claiming a slot and pushing onto a cell's list are both
/// lock-free; insertion never allocates.
///
/// Concurrency contract: insert() may be called concurrently from any
/// number of threads. Readers (find / slot iteration) must only run after
/// all inserts completed (the screener's phase barrier) — the same
/// discipline a CUDA kernel boundary imposes in the paper's GPU variant.
class GridHashSet {
 public:
  /// Sizes the set for `max_entries` satellites. The slot table gets
  /// `slot_factor` * max_entries slots, rounded up to a power of two ("we
  /// use twice the number of satellites as slots to mitigate the number of
  /// hash collisions and break up long clusters").
  explicit GridHashSet(std::size_t max_entries, double slot_factor = 2.0);

  /// Movable (single-threaded contexts only — the atomic counters are
  /// transferred with plain loads/stores); not copyable.
  GridHashSet(GridHashSet&& other) noexcept;
  GridHashSet& operator=(GridHashSet&& other) noexcept;
  GridHashSet(const GridHashSet&) = delete;
  GridHashSet& operator=(const GridHashSet&) = delete;

  /// Inserts a satellite into cell `cell_key`. Thread-safe and lock-free.
  /// Returns false iff the entry pool or the slot table is exhausted
  /// (cannot happen when at most max_entries inserts are issued).
  bool insert(std::uint64_t cell_key, std::uint32_t satellite, const Vec3& position);

  /// Head of the entry list for a cell, or kNoEntry. Call only after the
  /// insertion phase finished.
  std::uint32_t find(std::uint64_t cell_key) const;

  const GridEntry& entry(std::uint32_t index) const { return entries_[index]; }

  /// Number of entries inserted since the last clear().
  std::size_t size() const { return entry_count_.load(std::memory_order_acquire); }
  std::size_t capacity() const { return entries_.size(); }
  std::size_t slot_count() const { return slots_.size(); }

  /// Slot inspection for the parallel conjunction-detection scan.
  std::uint64_t slot_key(std::size_t slot) const {
    return slots_[slot].key.load(std::memory_order_acquire);
  }
  std::uint32_t slot_head(std::size_t slot) const {
    return slots_[slot].head.load(std::memory_order_acquire);
  }

  /// Resets every slot to empty and recycles the entry pool. O(slot_count).
  void clear();

  /// Total linear-probe steps taken by all inserts since construction;
  /// diagnostic for load-factor/clustering experiments.
  std::uint64_t probe_steps() const { return probe_steps_.load(std::memory_order_relaxed); }

  /// Approximate memory footprint in bytes (slot table + entry pool); used
  /// by the memory-sizing model (a_gh + a_l in Section V-B).
  std::size_t memory_bytes() const;

  /// Footprint a set of this size would have, without building it.
  static std::size_t projected_memory_bytes(std::size_t max_entries,
                                            double slot_factor = 2.0);

 private:
  struct Slot {
    std::atomic<std::uint64_t> key{kEmptySlotKey};
    std::atomic<std::uint32_t> head{kNoEntry};
  };

  /// Slot-table size for `max_entries` satellites: slot_factor slots per
  /// satellite, plus one, rounded up to a power of two.
  static std::size_t slot_count_for(std::size_t max_entries, double slot_factor);

  std::vector<Slot> slots_;
  std::vector<GridEntry> entries_;
  std::atomic<std::uint32_t> entry_count_{0};
  std::atomic<std::uint64_t> probe_steps_{0};
  std::uint64_t slot_mask_ = 0;
};

}  // namespace scod
