#include "core/context.hpp"

#include <stdexcept>

#include "obs/telemetry.hpp"

namespace scod {

namespace {

/// A buffer is "grossly oversized" when its held capacity could serve more
/// than twice the request and the surplus is big enough to matter; small
/// buffers are never worth reallocating.
constexpr std::size_t kShrinkSlackElements = 4096;

template <typename T>
bool oversized(const std::vector<T>& buffer, std::size_t n) {
  return buffer.capacity() > 2 * n && buffer.capacity() - n > kShrinkSlackElements;
}

}  // namespace

std::vector<GridHashSet>& ScratchArena::grids(std::size_t count,
                                              std::size_t entries) {
  if (grid_entries_ != entries && !grids_.empty()) {
    // A GridHashSet's slot table is a pure function of its entry capacity;
    // a different population size means different geometry, so the cache
    // is useless — rebuilding doubles as shrink-on-oversize.
    grids_.clear();
    grids_.shrink_to_fit();
    ++stats_.vector_shrinks;
  }
  grid_entries_ = entries;
  if (grids_.size() > count) {
    grids_.erase(grids_.begin() + static_cast<std::ptrdiff_t>(count),
                 grids_.end());
    ++stats_.vector_shrinks;
  }
  stats_.grid_reuses += grids_.size();
  grids_.reserve(count);
  while (grids_.size() < count) {
    grids_.emplace_back(entries);
    ++stats_.grid_rebuilds;
  }
  return grids_;
}

CandidateBuffer& ScratchArena::candidates(std::size_t capacity) {
  if (candidates_.has_value() && candidates_->capacity() == capacity) {
    candidates_->clear();
    ++stats_.candidate_reuses;
  } else {
    // Mismatch covers both directions: a different sizing plan, and a
    // buffer doubled by a previous screen's grow(). Rebuilding at plan size
    // keeps warm growth counts identical to a cold screen's.
    candidates_.emplace(capacity);
    ++stats_.candidate_rebuilds;
  }
  return *candidates_;
}

template <typename T>
std::vector<T>& ScratchArena::checkout(std::vector<T>& buffer, std::size_t n) {
  if (oversized(buffer, n)) {
    std::vector<T>().swap(buffer);
    ++stats_.vector_shrinks;
  }
  buffer.resize(n);
  return buffer;
}

std::vector<double>& ScratchArena::vmax(std::size_t n) {
  return checkout(vmax_, n);
}

std::vector<Conjunction>& ScratchArena::conjunction_slots(std::size_t n) {
  return checkout(conjunction_slots_, n);
}

std::vector<std::uint8_t>& ScratchArena::valid_flags(std::size_t n) {
  if (oversized(valid_flags_, n)) {
    std::vector<std::uint8_t>().swap(valid_flags_);
    ++stats_.vector_shrinks;
  }
  valid_flags_.assign(n, 0);
  return valid_flags_;
}

std::size_t ScratchArena::memory_bytes() const {
  std::size_t bytes = 0;
  for (const GridHashSet& g : grids_) bytes += g.memory_bytes();
  if (candidates_.has_value()) bytes += candidates_->memory_bytes();
  bytes += vmax_.capacity() * sizeof(double);
  bytes += conjunction_slots_.capacity() * sizeof(Conjunction);
  bytes += valid_flags_.capacity();
  return bytes;
}

void ScratchArena::release() {
  grids_.clear();
  grids_.shrink_to_fit();
  grid_entries_ = 0;
  candidates_.reset();
  std::vector<double>().swap(vmax_);
  std::vector<Conjunction>().swap(conjunction_slots_);
  std::vector<std::uint8_t>().swap(valid_flags_);
}

ScreeningContext::Use::Use(ScreeningContext& context) : context_(context) {
  const std::thread::id me = std::this_thread::get_id();
  int expected = 0;
  if (context_.depth_.compare_exchange_strong(expected, 1,
                                              std::memory_order_acq_rel)) {
    context_.owner_.store(me, std::memory_order_release);
    if (context_.options_.telemetry && obs::compiled()) {
      context_.telemetry_was_enabled_ = obs::enabled();
      obs::set_enabled(true);
    }
    return;
  }
  if (context_.owner_.load(std::memory_order_acquire) != me) {
    throw std::logic_error(
        "ScreeningContext: concurrent use from a second thread — one screen "
        "at a time per context; give unrelated screens their own context");
  }
  context_.depth_.fetch_add(1, std::memory_order_acq_rel);
}

ScreeningContext::Use::~Use() {
  if (context_.depth_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    context_.owner_.store(std::thread::id{}, std::memory_order_release);
    if (context_.options_.telemetry && obs::compiled()) {
      obs::set_enabled(context_.telemetry_was_enabled_);
    }
  }
}

}  // namespace scod
