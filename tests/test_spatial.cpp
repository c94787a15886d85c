#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdlib>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "spatial/candidate_buffer.hpp"
#include "spatial/cell.hpp"
#include "spatial/cell_list.hpp"
#include "spatial/grid_hash_set.hpp"
#include "spatial/murmur3.hpp"
#include "util/rng.hpp"

namespace scod {
namespace {

TEST(Murmur3, Fmix64AvalanchesAndIsDeterministic) {
  EXPECT_EQ(murmur3_fmix64(0x1234), murmur3_fmix64(0x1234));
  EXPECT_NE(murmur3_fmix64(1), murmur3_fmix64(2));
  // fmix64 is a bijection: distinct inputs map to distinct outputs.
  std::set<std::uint64_t> outputs;
  for (std::uint64_t k = 0; k < 4096; ++k) outputs.insert(murmur3_fmix64(k));
  EXPECT_EQ(outputs.size(), 4096u);
  // fmix64(0) == 0 by construction.
  EXPECT_EQ(murmur3_fmix64(0), 0u);
}

TEST(Murmur3, RoundUpPow2IsTheSmallestPowerOfTwoAtLeastV) {
  EXPECT_EQ(round_up_pow2(0), 1u);
  EXPECT_EQ(round_up_pow2(1), 1u);
  EXPECT_EQ(round_up_pow2(2), 2u);
  EXPECT_EQ(round_up_pow2(3), 4u);
  EXPECT_EQ(round_up_pow2(1000), 1024u);
  EXPECT_EQ(round_up_pow2(std::size_t{1} << 20), std::size_t{1} << 20);
  EXPECT_EQ(round_up_pow2((std::size_t{1} << 20) + 1), std::size_t{1} << 21);
}

TEST(CellSize, FollowsEquationOne) {
  EXPECT_DOUBLE_EQ(grid_cell_size(2.0, 1.0), 2.0 + 7.8);
  EXPECT_DOUBLE_EQ(grid_cell_size(2.0, 9.0), 2.0 + 70.2);
  EXPECT_DOUBLE_EQ(grid_cell_size(0.5, 0.0), 0.5);
}

TEST(CellIndexer, MapsPositionsToCells) {
  const CellIndexer indexer(10.0, 100.0);
  EXPECT_EQ(indexer.cells_per_axis(), 20);
  EXPECT_EQ(indexer.cell_of({-100.0, -100.0, -100.0}), (CellCoord{0, 0, 0}));
  EXPECT_EQ(indexer.cell_of({0.0, 0.0, 0.0}), (CellCoord{10, 10, 10}));
  EXPECT_EQ(indexer.cell_of({99.9, 99.9, 99.9}), (CellCoord{19, 19, 19}));
  // Out-of-range positions clamp into the border cells.
  EXPECT_EQ(indexer.cell_of({1e6, -1e6, 0.0}), (CellCoord{19, 0, 10}));
}

/// The centre of cell `c`.
Vec3 cell_centre(const CellIndexer& indexer, const CellCoord& c) {
  const auto axis = [&](std::int32_t i) {
    return (i + 0.5) * indexer.cell_size() - indexer.half_extent();
  };
  return {axis(c.x), axis(c.y), axis(c.z)};
}

TEST(CellIndexer, NeighbourKeysAreTheKeyPlusAFixedOffset) {
  // Cell keys hold cells_per_axis + 2 values per axis.
  EXPECT_EQ(CellIndexer(33.2).axis_bits(), 12u);

  // Inside the cube: key + offset is the neighbouring cell's key.
  {
    const CellIndexer indexer(33.2);
    const std::int32_t cells = indexer.cells_per_axis();
    Rng rng(3);
    const double h = indexer.half_extent();
    for (int i = 0; i < 1000; ++i) {
      const Vec3 p{rng.uniform(-h, h), rng.uniform(-h, h), rng.uniform(-h, h)};
      const CellCoord c = indexer.cell_of(p);
      const std::uint64_t key = indexer.key_of(p);
      for (std::int32_t dz = -1; dz <= 1; ++dz)
        for (std::int32_t dy = -1; dy <= 1; ++dy)
          for (std::int32_t dx = -1; dx <= 1; ++dx) {
            const CellCoord nc{c.x + dx, c.y + dy, c.z + dz};
            const auto inside = [&](std::int32_t v) { return v >= 0 && v < cells; };
            if (!inside(nc.x) || !inside(nc.y) || !inside(nc.z)) continue;
            EXPECT_EQ(key + indexer.neighbor_offset(dx, dy, dz),
                      indexer.key_of(cell_centre(indexer, nc)))
                << dx << "," << dy << "," << dz;
          }
    }
  }

  // Off the clamped faces: a small cube whose every cell is enumerated, so
  // `reachable` holds every key a position (clamped or not) can produce.
  // With 31 cells a key field holds 0 .. 32, one value more than 5 bits.
  const CellIndexer indexer(10.0, 155.0);
  const std::int32_t cells = indexer.cells_per_axis();
  ASSERT_EQ(cells, 31);
  EXPECT_EQ(indexer.axis_bits(), 6u);
  std::set<std::uint64_t> reachable;
  for (std::int32_t z = 0; z < cells; ++z)
    for (std::int32_t y = 0; y < cells; ++y)
      for (std::int32_t x = 0; x < cells; ++x)
        reachable.insert(indexer.key_of(cell_centre(indexer, {x, y, z})));
  ASSERT_EQ(reachable.size(), static_cast<std::size_t>(cells * cells * cells));
  for (const Vec3& far : {Vec3{1e6, -1e6, 0.0}, Vec3{-1e9, 1e9, 1e9}, Vec3{0.0, 0.0, -150.0}}) {
    EXPECT_EQ(reachable.count(indexer.key_of(far)), 1u);
  }
  // Every step of a face cell that leaves the cube, on both faces of every
  // axis: its key is distinct from every other and from every cell's.
  std::set<std::uint64_t> off_cube;
  std::size_t steps = 0;
  for (std::int32_t z = 0; z < cells; ++z)
    for (std::int32_t y = 0; y < cells; ++y)
      for (std::int32_t x = 0; x < cells; ++x) {
        const std::uint64_t key = indexer.key_of(cell_centre(indexer, {x, y, z}));
        for (std::int32_t dz = -1; dz <= 1; ++dz)
          for (std::int32_t dy = -1; dy <= 1; ++dy)
            for (std::int32_t dx = -1; dx <= 1; ++dx) {
              const auto outside = [&](std::int32_t v) { return v < 0 || v >= cells; };
              if (!outside(x + dx) && !outside(y + dy) && !outside(z + dz)) continue;
              ++steps;
              const std::uint64_t step = key + indexer.neighbor_offset(dx, dy, dz);
              EXPECT_EQ(reachable.count(step), 0u) << x << "," << y << "," << z;
              off_cube.insert(step);
            }
      }
  // The off-cube cells form the shell of a (cells + 2)^3 cube: distinct
  // keys, one per shell cell, however many face cells step onto it.
  const std::size_t shell =
      static_cast<std::size_t>((cells + 2) * (cells + 2) * (cells + 2) - cells * cells * cells);
  EXPECT_GT(steps, shell);
  EXPECT_EQ(off_cube.size(), shell);
}

TEST(CellIndexer, AdjacentPositionsWithinCellSizeAreNeighbours) {
  // The geometric property behind Eq. (1): two points closer than one cell
  // size differ by at most 1 in every cell coordinate.
  const CellIndexer indexer(12.0, 50000.0);
  Rng rng(17);
  for (int i = 0; i < 2000; ++i) {
    const Vec3 p{rng.uniform(-40000.0, 40000.0), rng.uniform(-40000.0, 40000.0),
                 rng.uniform(-40000.0, 40000.0)};
    Vec3 q = p;
    // Random offset with norm < cell size.
    const Vec3 offset{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                      rng.uniform(-1.0, 1.0)};
    q += offset.normalized() * rng.uniform(0.0, 12.0 * 0.999);
    const CellCoord ca = indexer.cell_of(p);
    const CellCoord cb = indexer.cell_of(q);
    EXPECT_LE(std::abs(ca.x - cb.x), 1);
    EXPECT_LE(std::abs(ca.y - cb.y), 1);
    EXPECT_LE(std::abs(ca.z - cb.z), 1);
  }
}

TEST(CellIndexer, RejectsInvalidConfig) {
  EXPECT_THROW(CellIndexer(0.0), std::invalid_argument);
  EXPECT_THROW(CellIndexer(-1.0), std::invalid_argument);
  EXPECT_THROW(CellIndexer(10.0, -5.0), std::invalid_argument);
  // Three 21-bit key fields: half-extent 42500 km at 1 m cells would
  // overflow them.
  EXPECT_THROW(CellIndexer(0.001), std::invalid_argument);
}

TEST(Neighborhood, HalfStencilCoversEachPairOnce) {
  const CellIndexer indexer(33.2);
  const std::array<std::uint64_t, 14> half = cell_half_neighborhood(indexer);
  EXPECT_EQ(half[0], 0u);
  // For each of the 26 neighbour key offsets o, exactly one of {o, -o} is
  // in the half stencil, so a scan of every cell against it sees each pair
  // of neighbouring cells once; self appears once.
  for (std::int32_t dz = -1; dz <= 1; ++dz) {
    for (std::int32_t dy = -1; dy <= 1; ++dy) {
      for (std::int32_t dx = -1; dx <= 1; ++dx) {
        const std::uint64_t o = indexer.neighbor_offset(dx, dy, dz);
        int count = 0;
        for (const std::uint64_t h : half) {
          if (h == o) ++count;
          if (o != 0 && h == indexer.neighbor_offset(-dx, -dy, -dz)) ++count;
        }
        EXPECT_EQ(count, 1) << dx << "," << dy << "," << dz;
      }
    }
  }
  // Every forward offset is a positive key step: the cell list's sweep
  // finds them ahead of the cell in key order.
  for (std::size_t i = 1; i < half.size(); ++i) {
    EXPECT_GT(half[i], 0u);
    EXPECT_LT(half[i], std::uint64_t{1} << 63);
  }
}

using SatPair = std::pair<std::uint32_t, std::uint32_t>;

/// The pairs a CellList sweep visits, as (lower, higher) satellite index.
/// Fails the test when a pair is visited twice, when the visit does not
/// carry the satellites' own positions, or when the cell count is not the
/// number of distinct cells.
std::set<SatPair> swept_pairs(const CellIndexer& indexer, const std::vector<Vec3>& points) {
  CellList list(indexer, points.size());
  list.build(points.size(), [&](std::size_t begin, std::size_t end, Vec3* out) {
    std::copy(points.begin() + static_cast<std::ptrdiff_t>(begin),
              points.begin() + static_cast<std::ptrdiff_t>(end), out);
  });
  EXPECT_EQ(list.size(), points.size());
  std::set<SatPair> pairs;
  std::uint64_t cells = 0;
  list.sweep(
      [&](std::uint32_t a, const Vec3& pa, std::uint32_t b, const Vec3& pb) {
        EXPECT_NE(a, b);
        EXPECT_EQ(pa, points[a]);
        EXPECT_EQ(pb, points[b]);
        EXPECT_TRUE(pairs.insert(std::minmax(a, b)).second)
            << "pair " << a << "-" << b << " visited twice";
      },
      cells);
  std::set<std::uint64_t> distinct;
  for (const Vec3& p : points) distinct.insert(indexer.key_of(p));
  EXPECT_EQ(cells, distinct.size());
  return pairs;
}

/// Every pair whose cells are at Chebyshev distance <= 1, by brute force.
std::set<SatPair> neighbour_pairs(const CellIndexer& indexer, const std::vector<Vec3>& points) {
  std::set<SatPair> pairs;
  for (std::uint32_t a = 0; a < points.size(); ++a) {
    const CellCoord ca = indexer.cell_of(points[a]);
    for (std::uint32_t b = a + 1; b < points.size(); ++b) {
      const CellCoord cb = indexer.cell_of(points[b]);
      if (std::abs(ca.x - cb.x) <= 1 && std::abs(ca.y - cb.y) <= 1 &&
          std::abs(ca.z - cb.z) <= 1) {
        pairs.insert({a, b});
      }
    }
  }
  return pairs;
}

TEST(CellList, MatchesBruteForceOnRandomClusters) {
  // Clustered points so that cells hold several satellites and most of
  // them have neighbours; a few spread over the whole cube.
  const CellIndexer indexer(50.0);
  Rng rng(42);
  std::vector<Vec3> points;
  for (int cluster = 0; cluster < 12; ++cluster) {
    const Vec3 centre{rng.uniform(-8000.0, 8000.0), rng.uniform(-8000.0, 8000.0),
                      rng.uniform(-8000.0, 8000.0)};
    for (int k = 0; k < 40; ++k) {
      points.push_back(centre + Vec3{rng.uniform(-120.0, 120.0), rng.uniform(-120.0, 120.0),
                                     rng.uniform(-120.0, 120.0)});
    }
  }
  for (int k = 0; k < 100; ++k) {
    points.push_back({rng.uniform(-42000.0, 42000.0), rng.uniform(-42000.0, 42000.0),
                      rng.uniform(-42000.0, 42000.0)});
  }
  const std::set<SatPair> expected = neighbour_pairs(indexer, points);
  ASSERT_GT(expected.size(), points.size());
  EXPECT_EQ(swept_pairs(indexer, points), expected);
}

TEST(CellList, ManyObjectsInOneCellAndDuplicatePositions) {
  const CellIndexer indexer(10.0);
  std::vector<Vec3> points;
  for (int k = 0; k < 30; ++k) points.push_back({1.0 + 0.1 * k, 2.0, 3.0});
  for (int k = 0; k < 5; ++k) points.push_back({4.0, 4.0, 4.0});  // duplicates
  const std::set<SatPair> swept = swept_pairs(indexer, points);
  EXPECT_EQ(swept.size(), points.size() * (points.size() - 1) / 2);
  EXPECT_EQ(swept, neighbour_pairs(indexer, points));
}

TEST(CellList, PairsEveryNeighbourOffsetAndNothingFarther) {
  // Two satellites, one in a centre cell and one at each of the 124
  // offsets in [-2, 2]^3 \ {0}, in either order: the forward offsets
  // (+1 in x; the rows dy, dz = (1, 0), (-1, 1), (0, 1), (1, 1)), their
  // mirrors, and the cells two away that no pair may come from.
  const CellIndexer indexer(20.0);
  const CellCoord centre{1500, 2100, 1800};
  for (std::int32_t dz = -2; dz <= 2; ++dz) {
    for (std::int32_t dy = -2; dy <= 2; ++dy) {
      for (std::int32_t dx = -2; dx <= 2; ++dx) {
        if (dx == 0 && dy == 0 && dz == 0) continue;
        const Vec3 here = cell_centre(indexer, centre);
        const Vec3 there =
            cell_centre(indexer, {centre.x + dx, centre.y + dy, centre.z + dz});
        const bool neighbours = std::abs(dx) <= 1 && std::abs(dy) <= 1 && std::abs(dz) <= 1;
        const std::set<SatPair> want =
            neighbours ? std::set<SatPair>{{0, 1}} : std::set<SatPair>{};
        EXPECT_EQ(swept_pairs(indexer, {here, there}), want) << dx << " " << dy << " " << dz;
        EXPECT_EQ(swept_pairs(indexer, {there, here}), want) << dx << " " << dy << " " << dz;
      }
    }
  }
}

TEST(CellList, FullNeighbourhoodAtOnce) {
  // All 27 cells of a 3x3x3 block occupied at once, two satellites each:
  // every pair is a neighbour pair but the opposite corners' and edges'.
  const CellIndexer indexer(20.0);
  std::vector<Vec3> points;
  for (std::int32_t dz = -1; dz <= 1; ++dz)
    for (std::int32_t dy = -1; dy <= 1; ++dy)
      for (std::int32_t dx = -1; dx <= 1; ++dx)
        for (int copy = 0; copy < 2; ++copy) {
          points.push_back(cell_centre(indexer, {700 + dx, 900 + dy, 1100 + dz}) +
                           Vec3{copy * 0.5, 0.0, 0.0});
        }
  EXPECT_EQ(swept_pairs(indexer, points), neighbour_pairs(indexer, points));
}

TEST(CellList, ClampedBoundaryCellsOnBothFaces) {
  // Positions beyond the cube clamp into its boundary cells; the ±1 of a
  // boundary cell must neither wrap to the opposite face nor borrow into
  // the next row or plane. At 664.0625 km the cube is exactly 128 cells
  // wide, a power of two, so a key field one bit too narrow would alias
  // the last cell of a row with the first of the next.
  for (const double cell_size : {1000.0, 664.0625}) {
    const CellIndexer indexer(cell_size);
    const std::int32_t last = indexer.cells_per_axis() - 1;
    const double h = indexer.half_extent();
    std::vector<Vec3> points;
    for (const double x :
         {-h - 5000.0, -h + 10.0, -h + 1500.0, h - 10.0, h - 1500.0, h + 9000.0}) {
      for (const double y : {-h - 1.0, -h + 900.0, 0.0, h - 900.0, h + 1.0}) {
        for (const double z : {-h - 20000.0, -h + 10.0, h - 10.0, h + 20000.0}) {
          points.push_back({x, y, z});
        }
      }
    }
    // Row and plane ends next to the starts of the next row and plane.
    const auto row_end = static_cast<std::uint32_t>(points.size());
    points.push_back(cell_centre(indexer, {last, 10, 10}));
    points.push_back(cell_centre(indexer, {0, 11, 10}));
    points.push_back(cell_centre(indexer, {0, 0, 11}));
    points.push_back(cell_centre(indexer, {last, last, 10}));
    const std::set<SatPair> expected = neighbour_pairs(indexer, points);
    ASSERT_GT(expected.size(), 0u) << cell_size;
    EXPECT_EQ(expected.count({row_end, row_end + 1}), 0u) << cell_size;
    EXPECT_EQ(expected.count({row_end + 2, row_end + 3}), 0u) << cell_size;
    EXPECT_EQ(swept_pairs(indexer, points), expected) << cell_size;
  }
  EXPECT_EQ(CellIndexer(664.0625).cells_per_axis(), 128);
}

TEST(CellList, TinyPopulations) {
  const CellIndexer indexer(10.0);
  EXPECT_TRUE(swept_pairs(indexer, {}).empty());
  EXPECT_TRUE(swept_pairs(indexer, {{1.0, 1.0, 1.0}}).empty());
  EXPECT_EQ(swept_pairs(indexer, {{1.0, 1.0, 1.0}, {2.0, 2.0, 2.0}}),
            (std::set<SatPair>{{0, 1}}));
  EXPECT_TRUE(swept_pairs(indexer, {{1.0, 1.0, 1.0}, {100.0, 1.0, 1.0}}).empty());
}

TEST(CellList, RebuildReplacesThePreviousStep) {
  const CellIndexer indexer(10.0);
  const std::vector<Vec3> first(10, Vec3{1.0, 1.0, 1.0});
  CellList list(indexer, first.size());
  const auto copy_from = [](const std::vector<Vec3>& points) {
    return [&points](std::size_t begin, std::size_t end, Vec3* out) {
      std::copy(points.begin() + static_cast<std::ptrdiff_t>(begin),
                points.begin() + static_cast<std::ptrdiff_t>(end), out);
    };
  };
  const auto visit_count = [&list](std::uint64_t& cells) {
    std::size_t visits = 0;
    list.sweep([&](std::uint32_t, const Vec3&, std::uint32_t, const Vec3&) { ++visits; },
               cells);
    return visits;
  };
  list.build(first.size(), copy_from(first));
  std::uint64_t cells = 0;
  EXPECT_EQ(visit_count(cells), 45u);
  EXPECT_EQ(cells, 1u);

  // A rebuild with fewer, spread-out satellites replaces the old step.
  const std::vector<Vec3> second{{1.0, 1.0, 1.0}, {500.0, 1.0, 1.0}, {1000.0, 1.0, 1.0}};
  list.build(second.size(), copy_from(second));
  cells = 0;
  EXPECT_EQ(visit_count(cells), 0u);
  EXPECT_EQ(cells, 3u);
}

enum class Layout { kUniform, kClusters, kPlane, kLine, kLattice, kShell };

/// n points in [-100, 100]^3 km: spread out, packed into four tight
/// clusters, flat in a plane, on one line, on a lattice with the cells'
/// own 10 km spacing (so they sit on cell faces), or on a sphere.
std::vector<Vec3> make_layout(Layout layout, std::uint32_t n, Rng& rng) {
  std::vector<Vec3> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    switch (layout) {
      case Layout::kUniform:
        out.push_back({rng.uniform(-100.0, 100.0), rng.uniform(-100.0, 100.0),
                       rng.uniform(-100.0, 100.0)});
        break;
      case Layout::kClusters: {
        const double cx = (i % 4 < 2) ? -60.0 : 60.0;
        const double cy = (i % 2 == 0) ? -60.0 : 60.0;
        out.push_back({cx + rng.uniform(-12.0, 12.0), cy + rng.uniform(-12.0, 12.0),
                       rng.uniform(-12.0, 12.0)});
        break;
      }
      case Layout::kPlane:
        out.push_back({rng.uniform(-100.0, 100.0), rng.uniform(-100.0, 100.0), 0.0});
        break;
      case Layout::kLine:
        out.push_back({rng.uniform(-100.0, 100.0), 7.0, -7.0});
        break;
      case Layout::kLattice:
        out.push_back({10.0 * static_cast<double>(i % 8) - 40.0,
                       10.0 * static_cast<double>((i / 8) % 8) - 40.0,
                       10.0 * static_cast<double>(i / 64) - 40.0});
        break;
      case Layout::kShell: {
        const double z = rng.uniform(-1.0, 1.0);
        const double phi = rng.uniform(0.0, 6.283185307179586);
        const double r = std::sqrt(1.0 - z * z);
        out.push_back({90.0 * r * std::cos(phi), 90.0 * r * std::sin(phi), 90.0 * z});
        break;
      }
    }
  }
  return out;
}

std::string layout_name(const ::testing::TestParamInfo<Layout>& param) {
  static const char* const kNames[] = {"Uniform", "Clusters", "Plane",
                                       "Line",    "Lattice",  "Shell"};
  return kNames[static_cast<int>(param.param)];
}

/// The pairs a half-stencil scan of a GridHashSet finds, as devicesim's
/// cell scan does: each occupied cell's list against itself and against
/// the lists at the 13 forward key offsets. Fails the test when a pair is
/// found twice or an entry does not carry its satellite's position.
std::set<SatPair> half_stencil_pairs(const CellIndexer& indexer,
                                     const std::vector<Vec3>& points) {
  GridHashSet grid(points.size());
  for (std::uint32_t i = 0; i < points.size(); ++i) {
    EXPECT_TRUE(grid.insert(indexer.key_of(points[i]), i, points[i]));
  }
  const std::array<std::uint64_t, 14> half = cell_half_neighborhood(indexer);
  std::set<SatPair> pairs;
  const auto pair_entries = [&](std::uint32_t x, std::uint32_t y) {
    const GridEntry& a = grid.entry(x);
    const GridEntry& b = grid.entry(y);
    EXPECT_EQ(a.position, points[a.satellite]);
    EXPECT_EQ(b.position, points[b.satellite]);
    EXPECT_TRUE(pairs.insert(std::minmax(a.satellite, b.satellite)).second)
        << "pair " << a.satellite << "-" << b.satellite << " found twice";
  };
  for (std::size_t slot = 0; slot < grid.slot_count(); ++slot) {
    const std::uint64_t key = grid.slot_key(slot);
    if (key == kEmptySlotKey) continue;
    for (std::uint32_t a = grid.slot_head(slot); a != kNoEntry; a = grid.entry(a).next) {
      for (std::uint32_t b = grid.entry(a).next; b != kNoEntry; b = grid.entry(b).next) {
        pair_entries(a, b);
      }
      for (std::size_t o = 1; o < half.size(); ++o) {
        for (std::uint32_t b = grid.find(key + half[o]); b != kNoEntry;
             b = grid.entry(b).next) {
          pair_entries(a, b);
        }
      }
    }
  }
  return pairs;
}

/// The grid structures that stay (the CPU's cell list and devicesim's hash
/// set) against brute force on point sets of very different shape.
class NeighbourSearch : public ::testing::TestWithParam<Layout> {
 protected:
  const CellIndexer indexer_{10.0};
  std::vector<Vec3> points() const {
    Rng rng(1234 + static_cast<std::uint64_t>(GetParam()));
    return make_layout(GetParam(), 512, rng);
  }
};

TEST_P(NeighbourSearch, CellListSweepMatchesBruteForce) {
  const std::vector<Vec3> cloud = points();
  const std::set<SatPair> expected = neighbour_pairs(indexer_, cloud);
  ASSERT_GT(expected.size(), cloud.size() / 4);
  EXPECT_EQ(swept_pairs(indexer_, cloud), expected);
}

TEST_P(NeighbourSearch, HashSetHalfStencilMatchesBruteForce) {
  const std::vector<Vec3> cloud = points();
  const std::set<SatPair> expected = neighbour_pairs(indexer_, cloud);
  ASSERT_GT(expected.size(), cloud.size() / 4);
  EXPECT_EQ(half_stencil_pairs(indexer_, cloud), expected);
}

INSTANTIATE_TEST_SUITE_P(GridLayouts, NeighbourSearch,
                         ::testing::Values(Layout::kUniform, Layout::kClusters,
                                           Layout::kPlane, Layout::kLine,
                                           Layout::kLattice, Layout::kShell),
                         layout_name);

TEST(CellList, MemoryMatchesProjection) {
  // Positions, keys, satellites and the radix sort's scratch: 48 B each,
  // and a sentinel key ending each of the two key arrays.
  const CellList list(CellIndexer(33.2), 1000);
  EXPECT_EQ(list.memory_bytes(), CellList::projected_memory_bytes(1000));
  EXPECT_EQ(CellList::projected_memory_bytes(1000), 48016u);
}

TEST(CandidateBuffer, PackUnpackRoundTrip) {
  const std::uint64_t key = pack_candidate(42, 7, 1234);
  const Candidate c = unpack_candidate(key);
  EXPECT_EQ(c.sat_a, 7u);  // normalized to (min, max)
  EXPECT_EQ(c.sat_b, 42u);
  EXPECT_EQ(c.step, 1234u);
  EXPECT_EQ(pack_candidate(7, 42, 1234), key);
}

TEST(CandidateBuffer, PackValidatesRanges) {
  EXPECT_NO_THROW(pack_candidate((1u << 20) - 1, 0, 0));
  EXPECT_THROW(pack_candidate(1u << 20, 0, 0), std::out_of_range);
  EXPECT_THROW(pack_candidate(0, 1, 1u << 24), std::out_of_range);
}

TEST(CandidateBuffer, KeysReturnAllStoredInOrder) {
  CandidateBuffer buffer(1000);
  std::vector<std::uint64_t> reference;
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    const std::uint32_t a = static_cast<std::uint32_t>(rng.uniform_index(100));
    const std::uint32_t b = static_cast<std::uint32_t>(rng.uniform_index(100));
    const std::uint32_t step = static_cast<std::uint32_t>(rng.uniform_index(50));
    EXPECT_EQ(buffer.insert(a, b, step), CandidateBuffer::Insert::kInserted);
    reference.push_back(pack_candidate(a, b, step));
  }
  const std::span<const std::uint64_t> keys = buffer.keys();
  ASSERT_EQ(keys.size(), reference.size());
  for (std::size_t i = 0; i < keys.size(); ++i) EXPECT_EQ(keys[i], reference[i]) << i;
}

TEST(CandidateBuffer, AppendsWithoutDeduplicating) {
  CandidateBuffer buffer(100);
  EXPECT_EQ(buffer.insert(1, 2, 3), CandidateBuffer::Insert::kInserted);
  EXPECT_EQ(buffer.insert(2, 1, 3), CandidateBuffer::Insert::kInserted);
  EXPECT_EQ(buffer.size(), 2u);
}

TEST(CandidateBuffer, ReportsFullAtCapacity) {
  CandidateBuffer buffer(4);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(buffer.insert(i, i + 1, 0), CandidateBuffer::Insert::kInserted);
  }
  EXPECT_EQ(buffer.insert(50, 51, 0), CandidateBuffer::Insert::kFull);
  EXPECT_EQ(buffer.insert(60, 61, 0), CandidateBuffer::Insert::kFull);
  EXPECT_EQ(buffer.size(), 4u);  // clamped to the capacity
  EXPECT_EQ(buffer.keys().size(), 4u);
}

TEST(CandidateBuffer, GrowLeavesItEmptyAtTwiceTheCapacity) {
  CandidateBuffer buffer(4);
  for (std::uint32_t i = 0; i < 5; ++i) buffer.insert(i, i + 1, 0);
  buffer.grow();
  EXPECT_EQ(buffer.capacity(), 8u);
  EXPECT_EQ(buffer.size(), 0u);  // the overflowed attempt is re-run
  EXPECT_TRUE(buffer.keys().empty());
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_EQ(buffer.insert(i, i + 1, 0), CandidateBuffer::Insert::kInserted);
  }
  EXPECT_EQ(buffer.insert(50, 51, 0), CandidateBuffer::Insert::kFull);
}

TEST(CandidateBuffer, ClearEmptiesTheBuffer) {
  CandidateBuffer buffer(16);
  buffer.insert(1, 2, 3);
  buffer.clear();
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_TRUE(buffer.keys().empty());
  EXPECT_EQ(buffer.insert(1, 2, 3), CandidateBuffer::Insert::kInserted);
  EXPECT_EQ(buffer.size(), 1u);
}

TEST(CandidateBuffer, MemoryMatchesProjection) {
  EXPECT_THROW(CandidateBuffer(0), std::invalid_argument);
  CandidateBuffer buffer(1000);
  EXPECT_EQ(buffer.memory_bytes(), CandidateBuffer::projected_memory_bytes(1000));
  EXPECT_EQ(buffer.memory_bytes(), 1000u * sizeof(std::uint64_t));
  buffer.grow();
  EXPECT_EQ(buffer.memory_bytes(), CandidateBuffer::projected_memory_bytes(2000));
}

TEST(CandidateBuffer, ConcurrentInsertsAreEachStoredOnce) {
  // Every worker of the pool appends its own disjoint keys at once; the
  // stored keys must hold each exactly once.
  ThreadPool pool(4);
  constexpr std::uint32_t kPerWorker = 5000;
  const std::size_t workers = pool.thread_count();
  CandidateBuffer buffer(workers * kPerWorker);
  pool.run_on_all([&](std::size_t w) {
    const auto a = static_cast<std::uint32_t>(w);
    for (std::uint32_t i = 0; i < kPerWorker; ++i) {
      EXPECT_EQ(buffer.insert(a, a + 1, i), CandidateBuffer::Insert::kInserted);
    }
  });
  const std::span<const std::uint64_t> keys = buffer.keys();
  ASSERT_EQ(keys.size(), workers * kPerWorker);
  std::set<std::uint64_t> seen;
  for (const std::uint64_t key : keys) EXPECT_TRUE(seen.insert(key).second);
  for (std::size_t w = 0; w < workers; ++w) {
    const auto a = static_cast<std::uint32_t>(w);
    for (std::uint32_t i = 0; i < kPerWorker; ++i) {
      EXPECT_EQ(seen.count(pack_candidate(a, a + 1, i)), 1u);
    }
  }
  EXPECT_EQ(buffer.insert(0, 1, 0), CandidateBuffer::Insert::kFull);
}

}  // namespace
}  // namespace scod
