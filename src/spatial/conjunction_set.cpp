#include "spatial/conjunction_set.hpp"

#include <stdexcept>
#include <utility>

#include "spatial/murmur3.hpp"

namespace scod {

namespace {
constexpr std::uint64_t kEmpty = ~0ull;
constexpr std::uint32_t kSatMax = (1u << kCandidateSatelliteBits) - 1;
constexpr std::uint32_t kStepMax = (1u << kCandidateStepBits) - 1;
}  // namespace

std::uint64_t pack_candidate(std::uint32_t sat_a, std::uint32_t sat_b, std::uint32_t step) {
  if (sat_a > sat_b) std::swap(sat_a, sat_b);
  if (sat_b > kSatMax) throw std::out_of_range("pack_candidate: satellite index > 2^20-1");
  if (step > kStepMax) throw std::out_of_range("pack_candidate: step > 2^24-1");
  return (static_cast<std::uint64_t>(sat_a) << (kCandidateSatelliteBits + kCandidateStepBits)) |
         (static_cast<std::uint64_t>(sat_b) << kCandidateStepBits) | step;
}

Candidate unpack_candidate(std::uint64_t key) {
  Candidate c;
  c.step = static_cast<std::uint32_t>(key & kStepMax);
  c.sat_b = static_cast<std::uint32_t>((key >> kCandidateStepBits) & kSatMax);
  c.sat_a = static_cast<std::uint32_t>((key >> (kCandidateSatelliteBits + kCandidateStepBits)) & kSatMax);
  return c;
}

std::size_t CandidateSet::slot_count_for(std::size_t capacity) {
  return round_up_pow2(2 * capacity);
}

CandidateSet::CandidateSet(std::size_t capacity) : capacity_(capacity) {
  if (capacity == 0) throw std::invalid_argument("CandidateSet: zero capacity");
  slots_ = std::vector<std::atomic<std::uint64_t>>(slot_count_for(capacity));
  slot_mask_ = slots_.size() - 1;
  clear();
}

CandidateSet::CandidateSet(CandidateSet&& other) noexcept
    : slots_(std::move(other.slots_)),
      count_(other.count_.load(std::memory_order_relaxed)),
      capacity_(other.capacity_),
      slot_mask_(other.slot_mask_) {}

CandidateSet& CandidateSet::operator=(CandidateSet&& other) noexcept {
  if (this != &other) {
    slots_ = std::move(other.slots_);
    count_.store(other.count_.load(std::memory_order_relaxed), std::memory_order_relaxed);
    capacity_ = other.capacity_;
    slot_mask_ = other.slot_mask_;
  }
  return *this;
}

CandidateSet::Insert CandidateSet::insert(std::uint64_t candidate_key) {
  std::uint64_t slot = murmur3_fmix64(candidate_key) & slot_mask_;
  for (std::uint64_t probes = 0; probes <= slot_mask_; ++probes) {
    std::uint64_t current = slots_[slot].load(std::memory_order_acquire);
    if (current == kEmpty) {
      // Soft capacity check: duplicates are still recognized when full, and
      // concurrent over-admission is bounded by the thread count (the slot
      // table has twice the capacity, so space always exists).
      if (count_.load(std::memory_order_relaxed) >= capacity_) return Insert::kFull;
      if (slots_[slot].compare_exchange_strong(current, candidate_key,
                                               std::memory_order_acq_rel,
                                               std::memory_order_acquire)) {
        count_.fetch_add(1, std::memory_order_acq_rel);
        return Insert::kInserted;
      }
    }
    if (current == candidate_key) return Insert::kDuplicate;
    slot = (slot + 1) & slot_mask_;
  }
  return Insert::kFull;
}

std::vector<Candidate> CandidateSet::drain() const {
  std::vector<Candidate> out;
  out.reserve(size());
  for (const auto& s : slots_) {
    const std::uint64_t key = s.load(std::memory_order_acquire);
    if (key != kEmpty) out.push_back(unpack_candidate(key));
  }
  return out;
}

void CandidateSet::grow() {
  std::vector<std::atomic<std::uint64_t>> old = std::move(slots_);
  capacity_ *= 2;
  slots_ = std::vector<std::atomic<std::uint64_t>>(2 * old.size());
  slot_mask_ = slots_.size() - 1;
  for (auto& s : slots_) s.store(kEmpty, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  for (auto& s : old) {
    const std::uint64_t key = s.load(std::memory_order_relaxed);
    if (key != kEmpty) insert(key);
  }
}

void CandidateSet::clear() {
  for (auto& s : slots_) s.store(kEmpty, std::memory_order_relaxed);
  count_.store(0, std::memory_order_release);
}

}  // namespace scod
