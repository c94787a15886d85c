/// Micro-benchmarks of the spatial substrates: the MurMur3 finalizer, the
/// lock-free grid hash set (the paper's core data structure) under varying
/// load factors and thread counts, one whole sample step through the hash
/// grid against one through the CPU's cell list, and devicesim's candidate
/// buffer.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "util/constants.hpp"

#include "parallel/thread_pool.hpp"
#include "population/generator.hpp"
#include "propagation/contour_solver.hpp"
#include "propagation/two_body.hpp"
#include "spatial/candidate_buffer.hpp"
#include "spatial/cell.hpp"
#include "spatial/cell_list.hpp"
#include "spatial/grid_hash_set.hpp"
#include "spatial/murmur3.hpp"
#include "util/rng.hpp"

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

/// Epoch positions of generate_population({n, 1}): the shells, planes and
/// clustering the screener sees.
std::vector<Vec3> population_positions(std::size_t n) {
  const ContourKeplerSolver solver;
  const TwoBodyPropagator propagator(generate_population({n, 1}), solver);
  std::vector<Vec3> out(n);
  propagator.positions_at(0.0, 0, n, out.data());
  return out;
}

/// Step arguments: n, and the cell size in units of 0.1 km (33.2 km is
/// grid_20k's d = 2 km, s_ps = 4 s; 126.8 km hybrid_50k's d = 2 km,
/// s_ps = 16 s).
void step_args(benchmark::internal::Benchmark* b) {
  for (const std::int64_t n : {1000, 20000, 100000}) {
    for (const std::int64_t cell : {332, 1268}) b->Args({n, cell});
  }
}

/// One full-screen sample step through the paper's hash grid, as devicesim
/// runs it on one thread: clear, insert every satellite, then scan every
/// slot and probe the 13 forward neighbours of each occupied cell. Counts
/// the pairs met so the two structures can be compared.
void BM_StepGridHashSet(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const CellIndexer indexer(static_cast<double>(state.range(1)) / 10.0);
  const auto positions = population_positions(n);
  const std::array<std::uint64_t, 14> half = cell_half_neighborhood(indexer);
  GridHashSet grid(n);
  std::uint64_t pairs = 0;
  for (auto _ : state) {
    grid.clear();
    for (std::size_t i = 0; i < n; ++i) {
      grid.insert(indexer.key_of(positions[i]), static_cast<std::uint32_t>(i), positions[i]);
    }
    pairs = 0;
    for (std::size_t slot = 0; slot < grid.slot_count(); ++slot) {
      const std::uint64_t key = grid.slot_key(slot);
      if (key == kEmptySlotKey) continue;
      const std::uint32_t head = grid.slot_head(slot);
      for (const std::uint64_t off : half) {
        const bool self = off == 0;
        const std::uint32_t other = self ? head : grid.find(key + off);
        for (std::uint32_t a = head; other != kNoEntry && a != kNoEntry;
             a = grid.entry(a).next) {
          for (std::uint32_t b = self ? grid.entry(a).next : other; b != kNoEntry;
               b = grid.entry(b).next) {
            ++pairs;
          }
        }
      }
    }
    benchmark::DoNotOptimize(pairs);
  }
  state.counters["pairs"] = static_cast<double>(pairs);
  state.counters["bytes"] = static_cast<double>(grid.memory_bytes());
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_StepGridHashSet)->Apply(step_args);

/// The same step through the CPU's cell list: compute keys and radix-sort,
/// then one forward sweep. `pairs` must equal BM_StepGridHashSet's.
void BM_StepCellList(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const CellIndexer indexer(static_cast<double>(state.range(1)) / 10.0);
  const auto positions = population_positions(n);
  CellList list(indexer, n);
  std::uint64_t pairs = 0;
  for (auto _ : state) {
    list.build(n, [&](std::size_t begin, std::size_t end, Vec3* out) {
      std::copy(positions.begin() + static_cast<std::ptrdiff_t>(begin),
                positions.begin() + static_cast<std::ptrdiff_t>(end), out);
    });
    pairs = 0;
    std::uint64_t cells = 0;
    list.sweep([&](std::uint32_t, const Vec3&, std::uint32_t, const Vec3&) { ++pairs; }, cells);
    benchmark::DoNotOptimize(cells);
  }
  state.counters["pairs"] = static_cast<double>(pairs);
  state.counters["bytes"] = static_cast<double>(list.memory_bytes());
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_StepCellList)->Apply(step_args);

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

}  // namespace
