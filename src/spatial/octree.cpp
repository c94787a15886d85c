#include "spatial/octree.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace scod {

Octree::Octree(std::vector<Point> points, double half_extent,
               std::size_t leaf_capacity, int max_depth)
    : points_(std::move(points)),
      root_center_{0.0, 0.0, 0.0},
      root_half_(half_extent),
      leaf_capacity_(std::max<std::size_t>(leaf_capacity, 1)),
      max_depth_(max_depth) {
  if (!(half_extent > 0.0)) throw std::invalid_argument("Octree: bad extent");
  if (points_.empty()) return;
  // Grow the root cube to enclose every point: the search prunes children
  // by their cube, so a point outside the root would never be reached.
  for (const Point& p : points_) {
    root_half_ = std::max({root_half_, std::abs(p.position.x), std::abs(p.position.y),
                           std::abs(p.position.z)});
  }
  nodes_.reserve(points_.size() / leaf_capacity_ * 2 + 16);
  nodes_.push_back({kLeaf, 0, static_cast<std::uint32_t>(points_.size())});
  subdivide(0, root_center_, root_half_, 0);
}

void Octree::subdivide(std::uint32_t node_index, const Vec3& center, double half,
                       int depth) {
  // Copy the range out: nodes_ may reallocate below.
  const std::uint32_t first = nodes_[node_index].first;
  const std::uint32_t count = nodes_[node_index].count;
  if (count <= leaf_capacity_ || depth >= max_depth_) return;

  const auto octant_of = [&](const Point& p) {
    return (p.position.x >= center.x ? 1 : 0) | (p.position.y >= center.y ? 2 : 0) |
           (p.position.z >= center.z ? 4 : 0);
  };

  // In-place counting sort of [first, first + count) into octant order.
  std::uint32_t counts[8] = {};
  for (std::uint32_t i = first; i < first + count; ++i) ++counts[octant_of(points_[i])];

  std::uint32_t starts[8];
  std::uint32_t offset = first;
  for (int o = 0; o < 8; ++o) {
    starts[o] = offset;
    offset += counts[o];
  }
  std::uint32_t cursors[8];
  std::copy(starts, starts + 8, cursors);
  for (int o = 0; o < 8; ++o) {
    while (cursors[o] < starts[o] + counts[o]) {
      const int target = octant_of(points_[cursors[o]]);
      if (target == o) {
        ++cursors[o];
      } else {
        std::swap(points_[cursors[o]], points_[cursors[target]]);
        ++cursors[target];
      }
    }
  }

  // Phase 1: allocate the 8 children contiguously (the search relies on
  // children + octant indexing), then phase 2: subdivide each child.
  const auto child_base = static_cast<std::uint32_t>(nodes_.size());
  for (int o = 0; o < 8; ++o) {
    nodes_.push_back({kLeaf, starts[o], counts[o]});
  }
  nodes_[node_index].children = child_base;

  const double child_half = half / 2.0;
  for (int o = 0; o < 8; ++o) {
    const Vec3 child_center{center.x + ((o & 1) ? child_half : -child_half),
                            center.y + ((o & 2) ? child_half : -child_half),
                            center.z + ((o & 4) ? child_half : -child_half)};
    subdivide(child_base + o, child_center, child_half, depth + 1);
  }
}

std::vector<std::uint32_t> Octree::within(const Vec3& query, double radius) const {
  std::vector<std::uint32_t> out;
  for_each_within(query, radius, [&](const Point& p) { out.push_back(p.id); });
  return out;
}

}  // namespace scod
