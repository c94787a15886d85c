#include "spatial/cell_list.hpp"

#include <array>
#include <utility>

namespace scod {

CellList::CellList(const CellIndexer& indexer, std::size_t max_entries)
    : indexer_(indexer),
      positions_(max_entries),
      keys_(max_entries + 1),
      scratch_keys_(max_entries + 1),
      satellites_(max_entries),
      scratch_satellites_(max_entries) {}

void CellList::sort() {
  constexpr unsigned kDigitBits = 11;
  constexpr std::uint64_t kDigitMask = (std::uint64_t{1} << kDigitBits) - 1;
  const std::size_t n = size_;
  if (n < 2) return;
  for (unsigned shift = 0; shift < 3 * indexer_.axis_bits(); shift += kDigitBits) {
    std::array<std::uint32_t, kDigitMask + 1> offset{};
    for (std::size_t i = 0; i < n; ++i) ++offset[(keys_[i] >> shift) & kDigitMask];
    // Every key has the same digit: this pass would not move anything.
    if (offset[(keys_[0] >> shift) & kDigitMask] == n) continue;
    std::uint32_t sum = 0;
    for (std::uint32_t& o : offset) sum += std::exchange(o, sum);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t to = offset[(keys_[i] >> shift) & kDigitMask]++;
      scratch_keys_[to] = keys_[i];
      scratch_satellites_[to] = satellites_[i];
    }
    keys_.swap(scratch_keys_);
    satellites_.swap(scratch_satellites_);
  }
}

}  // namespace scod
