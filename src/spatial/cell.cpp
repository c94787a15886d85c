#include "spatial/cell.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>

namespace scod {

CellIndexer::CellIndexer(double cell_size, double half_extent)
    : cell_size_(cell_size), half_extent_(half_extent), inv_cell_size_(1.0 / cell_size) {
  if (!(cell_size > 0.0)) throw std::invalid_argument("CellIndexer: cell size must be > 0");
  if (!(half_extent > 0.0)) throw std::invalid_argument("CellIndexer: extent must be > 0");
  // A key field holds 0 .. cells + 1; three fields of 21 bits keep every
  // key below the all-ones sentinels of the cell list and the hash grid.
  const double cells = std::ceil(2.0 * half_extent / cell_size);
  if (cells + 1.0 >= static_cast<double>(std::uint64_t{1} << 21)) {
    throw std::invalid_argument("CellIndexer: cell size too small for 21-bit axis keys");
  }
  cells_per_axis_ = static_cast<std::int32_t>(cells);
  axis_bits_ = static_cast<unsigned>(
      std::bit_width(static_cast<std::uint32_t>(cells_per_axis_ + 1)));
}

std::array<std::uint64_t, 14> cell_half_neighborhood(const CellIndexer& indexer) {
  std::array<std::uint64_t, 14> o{};
  std::size_t i = 0;
  o[i++] = 0;
  for (std::int32_t dz = -1; dz <= 1; ++dz)
    for (std::int32_t dy = -1; dy <= 1; ++dy)
      for (std::int32_t dx = -1; dx <= 1; ++dx) {
        if (dx == 0 && dy == 0 && dz == 0) continue;
        // Keep offsets that are lexicographically positive in (z, y, x);
        // the mirrored half is covered from the neighbouring cell's scan.
        if (dz > 0 || (dz == 0 && (dy > 0 || (dy == 0 && dx > 0)))) {
          o[i++] = indexer.neighbor_offset(dx, dy, dz);
        }
      }
  return o;
}

}  // namespace scod
