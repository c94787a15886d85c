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

/// Maps ECI positions to grid cells and packs cell coordinates into 64-bit
/// keys for the hash map. The cube [-half_extent, +half_extent]^3 covers
/// the space up to GEO (the paper's (85,000 km)^3 volume); each packed axis
/// gets 21 bits, enough for cells well below 0.1 km at that extent.
class CellIndexer {
 public:
  explicit CellIndexer(double cell_size, double half_extent = kSimulationHalfExtent);

  double cell_size() const { return cell_size_; }
  double half_extent() const { return half_extent_; }

  /// Number of cells along one axis.
  std::int32_t cells_per_axis() const { return cells_per_axis_; }

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

  /// Packs a coordinate into a key: 21 bits per axis, offset to unsigned.
  std::uint64_t pack(const CellCoord& c) const;

  /// Inverse of pack().
  CellCoord unpack(std::uint64_t key) const;

  std::uint64_t key_of(const Vec3& position) const { return pack(cell_of(position)); }

 private:
  double cell_size_;
  double half_extent_;
  double inv_cell_size_;
  std::int32_t cells_per_axis_;
};

/// The cell itself (first entry) and its 13 "forward" neighbours, 14
/// offsets forming a half stencil: of the 26 neighbour offsets o and -o
/// exactly one is included, so scanning each occupied cell against these
/// covers every unordered pair of neighbouring cells exactly once. The
/// conjunction detection scans them.
const std::array<CellCoord, 14>& cell_half_neighborhood();

}  // namespace scod
