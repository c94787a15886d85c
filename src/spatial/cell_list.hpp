#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "spatial/cell.hpp"
#include "util/vec3.hpp"

namespace scod {

/// One sample step's satellites sorted by grid cell: the CPU's detection
/// structure for a full screen (a sort-based cell list in the manner of
/// muda's SpatialPartitionCell), where the paper's GridHashSet serves
/// thousands of GPU threads inserting at once. One thread builds and sweeps
/// a list, so it needs no atomics, no slot table to clear or scan and no
/// hash probes. A step
///  1. writes the positions of satellites 0..n-1 and computes each one's
///     cell key (build),
///  2. sorts the (key, satellite) pairs by key with a serial LSD radix
///     sort, which is stable, so the satellites of one cell stay in
///     ascending order (build),
///  3. walks the runs of equal keys once, forward (sweep).
///
/// Keys are CellIndexer::key_of, so they sort in (z, y, x) order and a
/// neighbour's key is the cell's key plus a fixed offset.
class CellList {
 public:
  /// Sizes the list for at most `max_entries` satellites in the cells of
  /// `indexer`.
  CellList(const CellIndexer& indexer, std::size_t max_entries);

  /// Fills the list with satellites 0..n-1 (n <= capacity()) and sorts it.
  /// `fill(begin, end, out)` writes the positions of satellites
  /// [begin, end) to out[0 .. end - begin); it is called on consecutive
  /// chunks, and each chunk's keys are computed while it is in cache.
  template <class Fill>
  void build(std::size_t n, Fill&& fill) {
    for (std::size_t begin = 0; begin < n; begin += kChunk) {
      const std::size_t end = std::min(n, begin + kChunk);
      fill(begin, end, positions_.data() + begin);
      for (std::size_t i = begin; i < end; ++i) {
        keys_[i] = indexer_.key_of(positions_[i]);
        satellites_[i] = static_cast<std::uint32_t>(i);
      }
    }
    size_ = n;
    sort();
    keys_[n] = kSentinel;
  }

  /// Calls `visit(a, position_a, b, position_b)` once for every pair of
  /// satellites whose cells are neighbours (Chebyshev cell distance <= 1;
  /// the same cell included), where `a` lies in the cell with the lower
  /// key and, within one cell, has the lower index. Each cell run is
  /// paired with itself, with key k + 1 (offset (1, 0, 0)) and with the
  /// rows (dy, dz) = (1, 0), (-1, 1), (0, 1), (1, 1), each the key range
  /// [k' - 1, k' + 1] read from a cursor that only moves forward: the 13
  /// forward offsets of cell_half_neighborhood(). Adds the number of
  /// occupied cells (runs of equal keys) swept to `cells`.
  template <class Visit>
  void sweep(Visit&& visit, std::uint64_t& cells) const {
    // key[n] is the sentinel, above every cell key: no scan runs past it.
    const std::uint64_t* key = keys_.data();
    const std::uint32_t* sat = satellites_.data();
    const std::size_t n = size_;
    const std::uint64_t row = indexer_.row();
    const std::uint64_t plane = indexer_.plane();
    const std::uint64_t rows[4] = {row, plane - row, plane, plane + row};
    // Each row's entries [begin, end): both ends only move forward.
    std::size_t begin[4] = {0, 0, 0, 0}, end[4] = {0, 0, 0, 0};

    // Pairs every entry of [a0, a1) with every entry of [b0, b1).
    const auto pair_runs = [&](std::size_t a0, std::size_t a1, std::size_t b0,
                               std::size_t b1) {
      for (std::size_t a = a0; a < a1; ++a) {
        for (std::size_t b = b0; b < b1; ++b) {
          visit(sat[a], positions_[sat[a]], sat[b], positions_[sat[b]]);
        }
      }
    };

    for (std::size_t i = 0; i < n;) {
      const std::uint64_t k = key[i];
      std::size_t j = i + 1;
      while (key[j] == k) ++j;
      ++cells;
      for (std::size_t a = i; a + 1 < j; ++a) pair_runs(a, a + 1, a + 1, j);
      std::size_t next_end = j;
      while (key[next_end] == k + 1) ++next_end;
      pair_runs(i, j, j, next_end);
      for (std::size_t r = 0; r < 4; ++r) {
        const std::uint64_t first = k + rows[r] - 1, last = k + rows[r] + 1;
        // A row start mostly moves by zero to two entries per cell: two
        // branch-free steps, then a loop for the rare longer jump.
        std::size_t b = begin[r];
        b += key[b] < first;
        b += key[b] < first;
        while (key[b] < first) ++b;
        std::size_t e = std::max(end[r], b);
        while (key[e] <= last) ++e;
        begin[r] = b;
        end[r] = e;
        pair_runs(i, j, b, e);
      }
      i = j;
    }
  }

  /// Number of satellites of the last build().
  std::size_t size() const { return size_; }
  std::size_t capacity() const { return positions_.size(); }

  /// Bytes held: positions, keys (with the sentinel) and satellites, and
  /// the radix sort's scratch copies of the keys and satellites.
  std::size_t memory_bytes() const {
    return positions_.size() * sizeof(Vec3) +
           (keys_.size() + scratch_keys_.size()) * sizeof(std::uint64_t) +
           (satellites_.size() + scratch_satellites_.size()) * sizeof(std::uint32_t);
  }

  /// Footprint a list of this capacity has, without building it; used by
  /// the memory-sizing model (a_gh + a_l of a CPU full screen).
  static std::size_t projected_memory_bytes(std::size_t max_entries) {
    return max_entries * kBytesPerEntry + 2 * sizeof(std::uint64_t);
  }

 private:
  static constexpr std::size_t kChunk = 256;
  static constexpr std::size_t kBytesPerEntry =
      sizeof(Vec3) + 2 * (sizeof(std::uint64_t) + sizeof(std::uint32_t));
  /// Ends the sorted keys; no cell key reaches it.
  static constexpr std::uint64_t kSentinel = ~std::uint64_t{0};

  /// Stable LSD radix sort of the first size_ (key, satellite) pairs.
  void sort();

  CellIndexer indexer_;
  std::size_t size_ = 0;
  std::vector<Vec3> positions_;  ///< by satellite index
  std::vector<std::uint64_t> keys_, scratch_keys_;  ///< one more: the sentinel
  std::vector<std::uint32_t> satellites_, scratch_satellites_;
};

}  // namespace scod
