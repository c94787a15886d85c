#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

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

/// Packs a candidate into a 64-bit set key: 20 bits per satellite index
/// (up to 1,048,575 — covering the paper's largest population of
/// 1,024,000) and 24 bits for the sample step. The pair is normalized to
/// (min, max) so both viewpoints of a conjunction map to the same key —
/// "this helps to prevent considering possible conjunctions twice ...
/// however, it allows multiple conjunctions at different sampling steps"
/// (Section IV-A3).
std::uint64_t pack_candidate(std::uint32_t sat_a, std::uint32_t sat_b, std::uint32_t step);

Candidate unpack_candidate(std::uint64_t key);

/// Lock-free fixed-size hash set of candidates — the paper's "conjunction
/// hash map". Sized up-front from the Extra-P model (Eqs. 3-4); the
/// screener grows it and retries the affected step if the population
/// produces more candidates than the model predicted.
class CandidateSet {
 public:
  enum class Insert { kInserted, kDuplicate, kFull };

  explicit CandidateSet(std::size_t capacity);

  CandidateSet(CandidateSet&& other) noexcept;
  CandidateSet& operator=(CandidateSet&& other) noexcept;
  CandidateSet(const CandidateSet&) = delete;
  CandidateSet& operator=(const CandidateSet&) = delete;

  /// Thread-safe, lock-free insert with duplicate elimination.
  Insert insert(std::uint64_t candidate_key);

  Insert insert(std::uint32_t sat_a, std::uint32_t sat_b, std::uint32_t step) {
    return insert(pack_candidate(sat_a, sat_b, step));
  }

  /// Number of distinct candidates stored.
  std::size_t size() const { return count_.load(std::memory_order_acquire); }
  std::size_t capacity() const { return capacity_; }
  std::size_t slot_count() const { return slots_.size(); }

  /// Collects all stored candidates (post-barrier only). Order is
  /// slot-table order, i.e. deterministic for a fixed content set.
  std::vector<Candidate> drain() const;

  /// Doubles the slot table, re-inserting existing keys. Single-threaded.
  void grow();

  void clear();

  std::size_t memory_bytes() const { return slots_.size() * sizeof(std::uint64_t); }

 private:
  static std::size_t round_up_pow2(std::size_t v);

  std::vector<std::atomic<std::uint64_t>> slots_;
  std::atomic<std::size_t> count_{0};
  std::size_t capacity_ = 0;  // max stored keys before reporting kFull
  std::uint64_t slot_mask_ = 0;
};

}  // namespace scod
