#include "spatial/candidate_buffer.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace scod {

namespace {
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

CandidateBuffer::CandidateBuffer(std::size_t capacity)
    : keys_(new std::uint64_t[capacity]), capacity_(capacity) {
  if (capacity == 0) throw std::invalid_argument("CandidateBuffer: zero capacity");
}

std::size_t CandidateBuffer::size() const {
  return std::min(cursor_.load(std::memory_order_acquire), capacity_);
}

void CandidateBuffer::grow() {
  capacity_ *= 2;
  keys_.reset();  // release before allocating the doubled array
  keys_.reset(new std::uint64_t[capacity_]);
  clear();
}

}  // namespace scod
