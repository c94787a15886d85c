#pragma once

#include <algorithm>
#include <array>
#include <cstdint>

#include "util/constants.hpp"
#include "util/vec3.hpp"

namespace scod {

/// Integer grid-cell coordinate.
struct CellCoord {
  std::int32_t x = 0;
  std::int32_t y = 0;
  std::int32_t z = 0;

  constexpr bool operator==(const CellCoord&) const = default;
};

/// Cell size from the paper's Eq. (1): g_c = d + 7.8 * s_ps.
///
/// The worst case (Fig. 4) has two objects just over the threshold apart at
/// the outer edges of non-neighbouring cells at consecutive samples; making
/// the cell this large guarantees any sub-threshold approach between two
/// samples keeps the objects within neighbouring cells at one of the two
/// samples, so the pair is never skipped.
constexpr double grid_cell_size(double threshold_km, double seconds_per_sample) {
  return threshold_km + kLeoSpeed * seconds_per_sample;
}

/// Maps ECI positions to grid cells and cells to 64-bit keys, the one cell
/// key of every grid structure (the cell list, the paper's hash grid and
/// the masked screen's phantom table). The cube
/// [-half_extent, +half_extent]^3 covers the space up to GEO (the paper's
/// (85,000 km)^3 volume).
///
/// A key packs (z, y, x) with axis_bits() bits per axis, the smallest width
/// that holds cells_per_axis + 2, and each axis offset by one: key order is
/// (z, y, x) order, and the neighbour (dx, dy, dz) of a cell has the cell's
/// key plus neighbor_offset(dx, dy, dz). A ±1 on any axis of any clamped
/// cell stays within its field (never borrowing into the next one) and
/// lands either on a real neighbour or on a cell outside the cube, a key
/// that no position produces.
class CellIndexer {
 public:
  /// Throws std::invalid_argument unless cell_size and half_extent are
  /// positive and a key's three fields fit into 63 bits.
  explicit CellIndexer(double cell_size, double half_extent = kSimulationHalfExtent);

  double cell_size() const { return cell_size_; }
  double half_extent() const { return half_extent_; }

  /// Number of cells along one axis.
  std::int32_t cells_per_axis() const { return cells_per_axis_; }

  /// Bits per axis of a cell key.
  unsigned axis_bits() const { return axis_bits_; }

  /// Cell containing `position`; positions outside the cube are clamped to
  /// the boundary cells (the population generator never produces them, but
  /// propagation of an HEO apogee might graze the boundary). Clamping
  /// before truncating equals flooring before clamping, without a call to
  /// floor(): every step of a screen computes n cells.
  CellCoord cell_of(const Vec3& position) const {
    const double last = static_cast<double>(cells_per_axis_ - 1);
    const auto axis = [&](double v) {
      return static_cast<std::int32_t>(
          std::clamp((v + half_extent_) * inv_cell_size_, 0.0, last));
    };
    return {axis(position.x), axis(position.y), axis(position.z)};
  }

  /// Key of the cell containing `position`.
  std::uint64_t key_of(const Vec3& position) const {
    const CellCoord c = cell_of(position);
    return (static_cast<std::uint64_t>(c.z + 1) << (2 * axis_bits_)) |
           (static_cast<std::uint64_t>(c.y + 1) << axis_bits_) |
           static_cast<std::uint64_t>(c.x + 1);
  }

  /// Key step of one cell along y (a row) and along z (a plane).
  std::uint64_t row() const { return std::uint64_t{1} << axis_bits_; }
  std::uint64_t plane() const { return std::uint64_t{1} << (2 * axis_bits_); }

  /// Key offset of the neighbour (dx, dy, dz), each in {-1, 0, 1}; a
  /// negative offset wraps, so key + offset is the neighbour's key either
  /// way.
  std::uint64_t neighbor_offset(std::int32_t dx, std::int32_t dy, std::int32_t dz) const {
    return static_cast<std::uint64_t>(dx) + static_cast<std::uint64_t>(dy) * row() +
           static_cast<std::uint64_t>(dz) * plane();
  }

 private:
  double cell_size_;
  double half_extent_;
  double inv_cell_size_;
  std::int32_t cells_per_axis_;
  unsigned axis_bits_;
};

/// Key offsets of the cell itself (first entry, 0) and its 13 "forward"
/// neighbours, a half stencil: of the 26 neighbour offsets o and -o
/// exactly one is included, the one lexicographically positive in
/// (z, y, x), so every entry is a positive key offset. Scanning each
/// occupied cell against these covers every unordered pair of
/// neighbouring cells exactly once; the conjunction detection scans them.
std::array<std::uint64_t, 14> cell_half_neighborhood(const CellIndexer& indexer);

}  // namespace scod
