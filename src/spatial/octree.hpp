#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/vec3.hpp"

namespace scod {

/// Static octree over a point set with fixed-radius neighbour queries —
/// the second tree structure the paper's Section IV-A rules out for the
/// screening problem ("grids ... are superior to data structures such as
/// octrees or Kd-trees. These must be recreated each time an object
/// moves"). Kept, like the k-d tree, as an ablation baseline so
/// bench_micro_spatial can put numbers on that argument.
///
/// Implementation: pointer-free, breadth-allocated nodes over a cubic
/// root volume; leaves hold up to `leaf_capacity` points; subdivision
/// stops at `max_depth`.
class Octree {
 public:
  struct Point {
    Vec3 position;
    std::uint32_t id = 0;
  };

  /// Builds the tree over the given points. `half_extent` is the root
  /// cube's least half size; the cube grows to enclose points outside it.
  Octree(std::vector<Point> points, double half_extent,
         std::size_t leaf_capacity = 8, int max_depth = 12);

  std::size_t size() const { return points_.size(); }
  std::size_t node_count() const { return nodes_.size(); }

  /// Calls `visit(point)` for every stored point within `radius`
  /// (inclusive) of `query`.
  template <typename Visitor>
  void for_each_within(const Vec3& query, double radius, Visitor&& visit) const {
    if (nodes_.empty()) return;
    search(0, root_center_, root_half_, query, radius * radius, visit);
  }

  std::vector<std::uint32_t> within(const Vec3& query, double radius) const;

 private:
  struct Node {
    /// Index of the first of 8 children, or kLeaf.
    std::uint32_t children = kLeaf;
    /// Leaf payload: range [first, first + count) in points_.
    std::uint32_t first = 0;
    std::uint32_t count = 0;
  };
  static constexpr std::uint32_t kLeaf = ~0u;

  void subdivide(std::uint32_t node_index, const Vec3& center, double half,
                 int depth);

  template <typename Visitor>
  void search(std::uint32_t node_index, const Vec3& center, double half,
              const Vec3& query, double radius2, Visitor&& visit) const {
    const Node& node = nodes_[node_index];
    if (node.children == kLeaf) {
      for (std::uint32_t i = node.first; i < node.first + node.count; ++i) {
        if ((points_[i].position - query).norm2() <= radius2) visit(points_[i]);
      }
      return;
    }
    const double child_half = half / 2.0;
    for (int octant = 0; octant < 8; ++octant) {
      const Vec3 child_center{center.x + ((octant & 1) ? child_half : -child_half),
                              center.y + ((octant & 2) ? child_half : -child_half),
                              center.z + ((octant & 4) ? child_half : -child_half)};
      // Prune children whose cube cannot intersect the query ball.
      const double dx = std::max(0.0, std::abs(query.x - child_center.x) - child_half);
      const double dy = std::max(0.0, std::abs(query.y - child_center.y) - child_half);
      const double dz = std::max(0.0, std::abs(query.z - child_center.z) - child_half);
      if (dx * dx + dy * dy + dz * dz > radius2) continue;
      search(node.children + octant, child_center, child_half, query, radius2, visit);
    }
  }

  std::vector<Point> points_;
  std::vector<Node> nodes_;
  Vec3 root_center_;
  double root_half_ = 0.0;
  std::size_t leaf_capacity_;
  int max_depth_;
};

}  // namespace scod
