/// Micro-benchmarks of the spatial substrates: MurMur3 hashing, the
/// lock-free grid hash set (the paper's core data structure) under varying
/// load factors and thread counts, the candidate buffer, and the k-d tree
/// baseline from the related work ([29]) that motivates choosing the grid:
/// the tree must be rebuilt every sample step.

#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "util/constants.hpp"

#include "parallel/thread_pool.hpp"
#include "spatial/candidate_buffer.hpp"
#include "spatial/cell.hpp"
#include "spatial/grid_hash_set.hpp"
#include "spatial/kdtree.hpp"
#include "spatial/murmur3.hpp"
#include "util/rng.hpp"
#include "spatial/octree.hpp"

namespace {

using namespace scod;

void BM_Murmur3Fmix64(benchmark::State& state) {
  std::uint64_t x = 0x12345;
  for (auto _ : state) {
    x = murmur3_fmix64(x);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_Murmur3Fmix64);

void BM_Murmur3X64_128(benchmark::State& state) {
  std::vector<char> data(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    std::uint64_t lo, hi;
    murmur3_x64_128(data.data(), data.size(), 0, &lo, &hi);
    benchmark::DoNotOptimize(lo);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Murmur3X64_128)->Arg(8)->Arg(64)->Arg(1024);

std::vector<Vec3> random_positions(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec3> out(n);
  for (auto& p : out) {
    // A thin LEO shell, matching the occupancy pattern the screener sees.
    const double r = rng.uniform(6900.0, 7100.0);
    const double theta = rng.uniform(0.0, kTwoPi);
    const double z = rng.uniform(-1.0, 1.0);
    const double s = std::sqrt(1.0 - z * z);
    p = {r * s * std::cos(theta), r * s * std::sin(theta), r * z};
  }
  return out;
}

void BM_GridHashSetInsert(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto positions = random_positions(n, 7);
  const CellIndexer indexer(33.2);
  GridHashSet set(n);
  for (auto _ : state) {
    set.clear();
    for (std::size_t i = 0; i < n; ++i) {
      set.insert(indexer.key_of(positions[i]), static_cast<std::uint32_t>(i),
                 positions[i]);
    }
    benchmark::DoNotOptimize(set.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_GridHashSetInsert)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_GridHashSetInsertParallel(benchmark::State& state) {
  const std::size_t n = 100000;
  const auto positions = random_positions(n, 7);
  const CellIndexer indexer(33.2);
  GridHashSet set(n);
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    set.clear();
    pool.parallel_for(n, [&](std::size_t i) {
      set.insert(indexer.key_of(positions[i]), static_cast<std::uint32_t>(i),
                 positions[i]);
    });
    benchmark::DoNotOptimize(set.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_GridHashSetInsertParallel)->Arg(1)->Arg(2)->Arg(4);

void BM_GridHashSetLoadFactor(benchmark::State& state) {
  // Insertion cost vs slot-table headroom: the paper doubles the slot
  // count to "break up long clusters" of linear probing.
  const std::size_t n = 50000;
  const double slot_factor = static_cast<double>(state.range(0)) / 100.0;
  const auto positions = random_positions(n, 11);
  const CellIndexer indexer(8.0);  // small cells: many distinct keys
  GridHashSet set(n, slot_factor);
  for (auto _ : state) {
    set.clear();
    for (std::size_t i = 0; i < n; ++i) {
      set.insert(indexer.key_of(positions[i]), static_cast<std::uint32_t>(i),
                 positions[i]);
    }
  }
  state.counters["probe_steps_per_insert"] =
      static_cast<double>(set.probe_steps()) /
      static_cast<double>(state.iterations() * n);
}
BENCHMARK(BM_GridHashSetLoadFactor)->Arg(105)->Arg(130)->Arg(200)->Arg(400);

void BM_GridHashSetFind(benchmark::State& state) {
  const std::size_t n = 100000;
  const auto positions = random_positions(n, 13);
  const CellIndexer indexer(33.2);
  GridHashSet set(n);
  for (std::size_t i = 0; i < n; ++i) {
    set.insert(indexer.key_of(positions[i]), static_cast<std::uint32_t>(i),
               positions[i]);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(set.find(indexer.key_of(positions[i])));
    i = (i + 1) % n;
  }
}
BENCHMARK(BM_GridHashSetFind);

void BM_CandidateBufferInsert(benchmark::State& state) {
  const std::size_t n = 1 << 16;
  CandidateBuffer buffer(n);
  Rng rng(3);
  std::vector<std::uint64_t> keys(n);
  for (auto& k : keys) {
    k = pack_candidate(static_cast<std::uint32_t>(rng.uniform_index(1000)),
                       static_cast<std::uint32_t>(rng.uniform_index(1000)) + 1000,
                       static_cast<std::uint32_t>(rng.uniform_index(1 << 20)));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    if (i == 0) buffer.clear();
    benchmark::DoNotOptimize(buffer.insert(keys[i]));
    i = (i + 1) % (n / 2);
  }
}
BENCHMARK(BM_CandidateBufferInsert);

void BM_KdTreeBuild(benchmark::State& state) {
  // The related-work baseline: a tree rebuild per sample step. Compare
  // against BM_GridHashSetInsert at equal n — the grid's per-step cost.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto positions = random_positions(n, 17);
  std::vector<KdTree::Point> points(n);
  for (std::size_t i = 0; i < n; ++i) {
    points[i] = {positions[i], static_cast<std::uint32_t>(i)};
  }
  for (auto _ : state) {
    KdTree tree(points);
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_KdTreeBuild)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_OctreeBuild(benchmark::State& state) {
  // The other tree baseline ruled out in Section IV-A; like the k-d tree
  // it must be rebuilt every sample step.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto positions = random_positions(n, 23);
  std::vector<Octree::Point> points(n);
  for (std::size_t i = 0; i < n; ++i) {
    points[i] = {positions[i], static_cast<std::uint32_t>(i)};
  }
  for (auto _ : state) {
    Octree tree(points, 8000.0);
    benchmark::DoNotOptimize(tree.node_count());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_OctreeBuild)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_OctreeRadiusQuery(benchmark::State& state) {
  const std::size_t n = 100000;
  const auto positions = random_positions(n, 29);
  std::vector<Octree::Point> points(n);
  for (std::size_t i = 0; i < n; ++i) {
    points[i] = {positions[i], static_cast<std::uint32_t>(i)};
  }
  const Octree tree(points, 8000.0);
  std::size_t i = 0;
  std::size_t hits = 0;
  for (auto _ : state) {
    tree.for_each_within(positions[i], 33.2, [&](const Octree::Point&) { ++hits; });
    benchmark::DoNotOptimize(hits);
    i = (i + 1) % n;
  }
}
BENCHMARK(BM_OctreeRadiusQuery);

void BM_KdTreeRadiusQuery(benchmark::State& state) {
  const std::size_t n = 100000;
  const auto positions = random_positions(n, 19);
  std::vector<KdTree::Point> points(n);
  for (std::size_t i = 0; i < n; ++i) {
    points[i] = {positions[i], static_cast<std::uint32_t>(i)};
  }
  const KdTree tree(points);
  std::size_t i = 0;
  std::size_t hits = 0;
  for (auto _ : state) {
    tree.for_each_within(positions[i], 33.2, [&](const KdTree::Point&) { ++hits; });
    benchmark::DoNotOptimize(hits);
    i = (i + 1) % n;
  }
}
BENCHMARK(BM_KdTreeRadiusQuery);

}  // namespace
