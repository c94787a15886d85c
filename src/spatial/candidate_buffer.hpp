#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>

namespace scod {

/// A screening candidate: an unordered satellite pair plus the sample step
/// at which the grid saw them in neighbouring cells.
struct Candidate {
  std::uint32_t sat_a = 0;  ///< smaller index
  std::uint32_t sat_b = 0;  ///< larger index
  std::uint32_t step = 0;   ///< global sample-step number
};

/// Widths of the fields of a packed candidate key.
inline constexpr std::uint32_t kCandidateSatelliteBits = 20;
inline constexpr std::uint32_t kCandidateStepBits = 24;

/// Packs a candidate into a 64-bit key: 20 bits per satellite index (up to
/// 1,048,575 — covering the paper's largest population of 1,024,000) and
/// 24 bits for the sample step. The pair is normalized to (min, max), so
/// both viewpoints of a conjunction give the same key.
std::uint64_t pack_candidate(std::uint32_t sat_a, std::uint32_t sat_b, std::uint32_t step);

Candidate unpack_candidate(std::uint64_t key);

/// Lock-free append buffer of candidate keys, standing in for the paper's
/// "conjunction hash map" (Section IV-A3) on devicesim, where thousands of
/// threads share one fixed-size table in device memory. (The CPU's workers
/// each own whole sample steps and append to their own key lists.) The map
/// deduplicates because a 26-neighbour scan finds every (pair, step)
/// twice; the half-stencil scan emits each once, so appending is enough.
/// Sized up-front from the Extra-P model (Eqs. 3-4); the pipeline grows it
/// and re-runs the round's CD kernel if the population produces more
/// candidates than the model predicted.
class CandidateBuffer {
 public:
  enum class Insert { kInserted, kFull };

  explicit CandidateBuffer(std::size_t capacity);

  /// Thread-safe, lock-free append: reserves the next index, or reports
  /// kFull once the indices reach the capacity.
  Insert insert(std::uint64_t candidate_key) {
    const std::size_t index = cursor_.fetch_add(1, std::memory_order_relaxed);
    if (index >= capacity_) return Insert::kFull;
    keys_[index] = candidate_key;
    return Insert::kInserted;
  }

  Insert insert(std::uint32_t sat_a, std::uint32_t sat_b, std::uint32_t step) {
    return insert(pack_candidate(sat_a, sat_b, step));
  }

  /// Number of candidates stored.
  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }

  /// The stored keys in insertion order (post-barrier only); valid until
  /// the next insert, clear() or grow().
  std::span<const std::uint64_t> keys() const { return {keys_.get(), size()}; }

  /// Doubles the capacity and drops the stored keys: a full buffer means
  /// the attempt that filled it is re-run. Single-threaded.
  void grow();

  void clear() { cursor_.store(0, std::memory_order_relaxed); }

  std::size_t memory_bytes() const { return projected_memory_bytes(capacity_); }

  /// Footprint a buffer of this capacity has, without building it; used
  /// by the memory-sizing model (a_ch in Section V-B).
  static std::size_t projected_memory_bytes(std::size_t capacity) {
    return capacity * sizeof(std::uint64_t);
  }

 private:
  /// Allocated without initialisation: only the pages a screen writes
  /// become resident.
  std::unique_ptr<std::uint64_t[]> keys_;
  std::atomic<std::size_t> cursor_{0};
  std::size_t capacity_ = 0;
};

}  // namespace scod
