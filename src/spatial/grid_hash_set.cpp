#include "spatial/grid_hash_set.hpp"

#include <stdexcept>

#include "obs/telemetry.hpp"
#include "spatial/murmur3.hpp"

namespace scod {

std::size_t GridHashSet::slot_count_for(std::size_t max_entries, double slot_factor) {
  return round_up_pow2(
      static_cast<std::size_t>(slot_factor * static_cast<double>(max_entries)) + 1);
}

GridHashSet::GridHashSet(std::size_t max_entries, double slot_factor) {
  if (max_entries == 0) throw std::invalid_argument("GridHashSet: zero capacity");
  if (slot_factor < 1.0) throw std::invalid_argument("GridHashSet: slot factor < 1");
  slots_ = std::vector<Slot>(slot_count_for(max_entries, slot_factor));
  entries_.resize(max_entries);
  slot_mask_ = slots_.size() - 1;
}

GridHashSet::GridHashSet(GridHashSet&& other) noexcept
    : slots_(std::move(other.slots_)),
      entries_(std::move(other.entries_)),
      entry_count_(other.entry_count_.load(std::memory_order_relaxed)),
      probe_steps_(other.probe_steps_.load(std::memory_order_relaxed)),
      slot_mask_(other.slot_mask_) {}

GridHashSet& GridHashSet::operator=(GridHashSet&& other) noexcept {
  if (this != &other) {
    slots_ = std::move(other.slots_);
    entries_ = std::move(other.entries_);
    entry_count_.store(other.entry_count_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    probe_steps_.store(other.probe_steps_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    slot_mask_ = other.slot_mask_;
  }
  return *this;
}

bool GridHashSet::insert(std::uint64_t cell_key, std::uint32_t satellite,
                         const Vec3& position) {
  std::uint64_t slot = murmur3_fmix64(cell_key) & slot_mask_;
  std::uint64_t probes = 0;
  std::uint64_t cas_retries = 0;

  for (; probes <= slot_mask_; ++probes) {
    std::uint64_t current = slots_[slot].key.load(std::memory_order_acquire);
    if (current == kEmptySlotKey) {
      // Claim the empty slot with CAS; on failure `current` holds whatever
      // key the winning thread stored, which may be ours (another satellite
      // of the same cell racing us) or a hash collision.
      if (slots_[slot].key.compare_exchange_strong(current, cell_key,
                                                   std::memory_order_acq_rel,
                                                   std::memory_order_acquire)) {
        current = cell_key;
      } else {
        ++cas_retries;
      }
    }
    if (current == cell_key) break;
    slot = (slot + 1) & slot_mask_;  // linear probing, Eq. (2)
  }
  probe_steps_.fetch_add(probes, std::memory_order_relaxed);
  if (probes > slot_mask_) {
    obs::count(obs::Counter::kGridPoolRejects);
    return false;  // slot table full
  }

  const std::uint32_t index = entry_count_.fetch_add(1, std::memory_order_acq_rel);
  if (index >= entries_.size()) {
    // Give the ticket back so size() stays the number of stored entries
    // even after rejected inserts.
    entry_count_.fetch_sub(1, std::memory_order_acq_rel);
    obs::count(obs::Counter::kGridPoolRejects);
    return false;  // entry pool exhausted
  }

  GridEntry& e = entries_[index];
  e.position = position;
  e.satellite = satellite;

  // Push-front onto the cell's singly-linked list. The release order on
  // the successful CAS publishes the entry fields to post-barrier readers.
  std::uint32_t old_head = slots_[slot].head.load(std::memory_order_relaxed);
  std::uint32_t first_seen = old_head;
  do {
    e.next = old_head;
  } while (!slots_[slot].head.compare_exchange_weak(
      old_head, index, std::memory_order_release, std::memory_order_relaxed));
  if (old_head != first_seen) ++cas_retries;
  obs::count_grid_insert(probes, cas_retries);
  return true;
}

std::uint32_t GridHashSet::find(std::uint64_t cell_key) const {
  std::uint64_t slot = murmur3_fmix64(cell_key) & slot_mask_;
  for (std::uint64_t probes = 0; probes <= slot_mask_; ++probes) {
    const std::uint64_t current = slots_[slot].key.load(std::memory_order_acquire);
    if (current == cell_key) return slots_[slot].head.load(std::memory_order_acquire);
    if (current == kEmptySlotKey) return kNoEntry;
    slot = (slot + 1) & slot_mask_;
  }
  return kNoEntry;
}

void GridHashSet::clear() {
  for (auto& s : slots_) {
    s.key.store(kEmptySlotKey, std::memory_order_relaxed);
    s.head.store(kNoEntry, std::memory_order_relaxed);
  }
  entry_count_.store(0, std::memory_order_release);
}

std::size_t GridHashSet::memory_bytes() const {
  return slots_.size() * sizeof(Slot) + entries_.size() * sizeof(GridEntry);
}

std::size_t GridHashSet::projected_memory_bytes(std::size_t max_entries,
                                                double slot_factor) {
  return slot_count_for(max_entries, slot_factor) * sizeof(Slot) +
         max_entries * sizeof(GridEntry);
}

}  // namespace scod
