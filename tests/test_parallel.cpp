#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/exec.hpp"
#include "core/screener.hpp"
#include "obs/telemetry.hpp"
#include "parallel/radix_sort.hpp"
#include "parallel/thread_pool.hpp"
#include "population/generator.hpp"
#include "spatial/candidate_buffer.hpp"
#include "util/rng.hpp"

namespace scod {
namespace {

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::vector<int> hits(100, 0);
  pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, DefaultUsesHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_GE(pool.thread_count(), 1u);
}

class ThreadPoolSizes : public testing::TestWithParam<std::size_t> {};

TEST_P(ThreadPoolSizes, EveryIndexVisitedExactlyOnce) {
  ThreadPool pool(GetParam());
  constexpr std::size_t kN = 10007;  // prime, exercises ragged chunking
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_P(ThreadPoolSizes, SumMatchesSerial) {
  ThreadPool pool(GetParam());
  constexpr std::size_t kN = 5000;
  std::atomic<long long> sum{0};
  pool.parallel_for(kN, [&](std::size_t i) {
    sum.fetch_add(static_cast<long long>(i), std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), static_cast<long long>(kN) * (kN - 1) / 2);
}

TEST_P(ThreadPoolSizes, RangesCoverWithoutOverlap) {
  ThreadPool pool(GetParam());
  constexpr std::size_t kN = 3333;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for_ranges(kN, [&](std::size_t begin, std::size_t end) {
    ASSERT_LE(begin, end);
    for (std::size_t i = begin; i < end; ++i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

INSTANTIATE_TEST_SUITE_P(VariousThreadCounts, ThreadPoolSizes,
                         testing::Values(1, 2, 3, 4, 8));

TEST(ThreadPool, EmptyLoopIsNoop) {
  ThreadPool pool(4);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ExplicitGrainRespected) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(
      kN, [&](std::size_t i) { hits[i].fetch_add(1, std::memory_order_relaxed); },
      /*grain=*/7);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, PropagatesExceptionsFromWorkers) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::size_t i) {
                          if (i == 57) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool must stay usable after a failed loop.
  std::atomic<int> count{0};
  pool.parallel_for(10, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, RunOnAllPropagatesWorkerException) {
  // The throw happens on a pool worker, not the caller: the error must
  // cross the fork-join barrier onto the caller without crashing the
  // process or deadlocking the join.
  ThreadPool pool(4);
  const std::size_t caller_id = pool.thread_count() - 1;
  try {
    pool.run_on_all([&](std::size_t id) {
      if (id != caller_id) throw std::runtime_error("worker " + std::to_string(id));
    });
    FAIL() << "expected the worker exception to surface";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("worker"), std::string::npos);
  }
  // The pool must survive: workers are parked again, not wedged.
  std::atomic<int> count{0};
  pool.run_on_all([&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), static_cast<int>(pool.thread_count()));
}

TEST(ThreadPool, ConcurrentThrowsSurfaceExactlyOne) {
  // Every context throws simultaneously; exactly one exception (the first)
  // must reach the caller, with no tasks lost in later loops.
  ThreadPool pool(8);
  for (int round = 0; round < 20; ++round) {
    EXPECT_THROW(
        pool.run_on_all([&](std::size_t id) {
          throw std::runtime_error("ctx " + std::to_string(id));
        }),
        std::runtime_error);
    std::atomic<int> count{0};
    pool.parallel_for(97, [&](std::size_t) { count.fetch_add(1); });
    ASSERT_EQ(count.load(), 97) << "round " << round;
  }
}

TEST(ThreadPool, RangesLoopPropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for_ranges(
                   1000,
                   [&](std::size_t begin, std::size_t) {
                     if (begin >= 500) throw std::logic_error("range");
                   },
                   /*grain=*/10),
               std::logic_error);
  std::atomic<int> count{0};
  pool.parallel_for_ranges(64, [&](std::size_t begin, std::size_t end) {
    count.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, RunOnAllGivesDistinctIds) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> id_hits(pool.thread_count());
  pool.run_on_all([&](std::size_t id) {
    ASSERT_LT(id, id_hits.size());
    id_hits[id].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& h : id_hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SequentialLoopsReuseWorkers) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(64, [&](std::size_t) { count.fetch_add(1); });
    ASSERT_EQ(count.load(), 64);
  }
}

TEST(ThreadPool, ConcurrentSubmitFromASecondThreadThrows) {
  // The caller's share of a job starts a second submitter and waits for
  // its attempt: the pool's workers belong to the job in flight, so the
  // second submission must be refused, not run on top of it.
  ThreadPool pool(2);
  const std::size_t caller_id = pool.thread_count() - 1;
  std::atomic<bool> attempted{false};
  std::atomic<int> second_ran{0};
  bool threw = false;
  std::thread intruder;
  pool.run_on_all([&](std::size_t id) {
    if (id != caller_id) return;
    intruder = std::thread([&] {
      try {
        pool.run_on_all([&](std::size_t) { second_ran.fetch_add(1); });
      } catch (const std::logic_error&) {
        threw = true;
      }
      attempted.store(true);
    });
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!attempted.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  });
  intruder.join();
  EXPECT_TRUE(threw) << "a submission while a job is in flight must be rejected";
  EXPECT_EQ(second_ran.load(), 0);

  // Once the job is done the pool takes submissions again.
  std::atomic<int> count{0};
  pool.run_on_all([&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), static_cast<int>(pool.thread_count()));
}

TEST(ThreadPool, SequentialSubmitsFromTwoThreadsBothRun) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  const auto submit = [&] {
    pool.parallel_for(64, [&](std::size_t) { count.fetch_add(1); });
  };
  std::thread first(submit);
  first.join();
  std::thread second(submit);
  second.join();
  EXPECT_EQ(count.load(), 128);
}

TEST(ThreadPool, ScreensOnDistinctPoolsRunConcurrently) {
  // Two threads screening at once, each on its own pool, report exactly
  // what one screen after the other does.
  const KeplerElements parent{7000.0, 0.001, 1.0, 0.5, 0.2, 1.0};
  const auto sats = generate_debris_cloud(parent, 80, 0.05, 7);
  ScreeningConfig cfg;
  cfg.threshold_km = 2.0;
  cfg.t_end = 900.0;
  const ScreeningReport grid = make_screener(Variant::kGrid)->screen(sats, cfg);
  const ScreeningReport hybrid = make_screener(Variant::kHybrid)->screen(sats, cfg);
  ASSERT_FALSE(grid.conjunctions.empty());

  ThreadPool pool_a(2);
  ThreadPool pool_b(2);
  ScreeningReport concurrent_grid;
  ScreeningReport concurrent_hybrid;
  const auto screen_on = [&](Variant variant, ThreadPool& pool, ScreeningReport& out) {
    ScreeningConfig own = cfg;
    own.pool = &pool;
    out = make_screener(variant)->screen(sats, own);
  };
  std::thread a(screen_on, Variant::kGrid, std::ref(pool_a), std::ref(concurrent_grid));
  std::thread b(screen_on, Variant::kHybrid, std::ref(pool_b),
                std::ref(concurrent_hybrid));
  a.join();
  b.join();

  for (const auto& [want, got] :
       {std::pair{&grid, &concurrent_grid}, std::pair{&hybrid, &concurrent_hybrid}}) {
    ASSERT_EQ(got->conjunctions.size(), want->conjunctions.size());
    for (std::size_t i = 0; i < want->conjunctions.size(); ++i) {
      EXPECT_EQ(got->conjunctions[i].sat_a, want->conjunctions[i].sat_a);
      EXPECT_EQ(got->conjunctions[i].sat_b, want->conjunctions[i].sat_b);
      EXPECT_EQ(got->conjunctions[i].tca, want->conjunctions[i].tca);
      EXPECT_EQ(got->conjunctions[i].pca, want->conjunctions[i].pca);
    }
    EXPECT_EQ(got->stats.candidates, want->stats.candidates);
    EXPECT_EQ(got->stats.refinements, want->stats.refinements);
  }
}

// ---------------------------------------------------------------------------
// RefineSlots: step 4's fixed-slot collect, shared by grid and hybrid

TEST(RefineSlots, CollectsValidSlotsInTaskOrderOnAWorkerPool) {
  ThreadPool pool(4);
  ScreeningConfig cfg;
  cfg.pool = &pool;
  // Task i yields a slot when i % 3 == 1, so the valid slots interleave
  // with empty tasks.
  constexpr std::size_t kTasks = 1001;
  const auto refine = [](std::size_t i, Conjunction& slot) {
    if (i % 3 != 1) return false;
    slot.sat_a = static_cast<std::uint32_t>(i);
    slot.sat_b = static_cast<std::uint32_t>(i + 1);
    slot.tca = static_cast<double>(i);
    slot.pca = 0.5;
    return true;
  };

  obs::reset();
  obs::set_enabled(true);
  detail::RefineSlots slots;
  std::vector<Conjunction> raw(1);  // the collect appends; earlier rounds stay
  raw[0].sat_a = 7;
  slots.run(cfg, kTasks, refine, raw);
  obs::set_enabled(false);

  std::size_t valid = 0;
  for (std::size_t i = 0; i < kTasks; ++i) valid += (i % 3 == 1) ? 1 : 0;
  ASSERT_EQ(raw.size(), 1 + valid);
  EXPECT_EQ(raw[0].sat_a, 7u);
  for (std::size_t k = 1; k < raw.size(); ++k) {
    EXPECT_EQ(raw[k].sat_a, 3 * (k - 1) + 1) << "slot " << k;
    EXPECT_EQ(raw[k].tca, static_cast<double>(raw[k].sat_a));
  }
  if (obs::compiled()) {
    EXPECT_EQ(obs::snapshot().value(obs::Counter::kConjunctionsRaw), valid);
  }
  obs::reset();
}

TEST(RefineSlots, ReusedSlotsStartEachRunWithClearFlags) {
  ThreadPool pool(2);
  ScreeningConfig cfg;
  cfg.pool = &pool;
  detail::RefineSlots slots;
  std::vector<Conjunction> raw;

  // A first round yields a slot from every task.
  slots.run(
      cfg, 64,
      [](std::size_t i, Conjunction& slot) {
        slot.sat_a = static_cast<std::uint32_t>(i);
        return true;
      },
      raw);
  ASSERT_EQ(raw.size(), 64u);

  // A second, smaller and then larger round on the same object yields no
  // slot: nothing of the first round's slots may leak into it.
  raw.clear();
  for (const std::size_t tasks : {std::size_t{16}, std::size_t{128}}) {
    slots.run(cfg, tasks, [](std::size_t, Conjunction&) { return false; }, raw);
    EXPECT_TRUE(raw.empty()) << tasks << " tasks";
  }
}

TEST(GlobalThreadPool, IsSingleton) {
  EXPECT_EQ(&global_thread_pool(), &global_thread_pool());
  EXPECT_GE(global_thread_pool().thread_count(), 1u);
}

/// Sorts a copy of `keys` with parallel_radix_sort on a one-thread and a
/// four-thread pool and expects std::sort's result from both.
void expect_sorts_like_std_sort(const std::vector<std::uint64_t>& keys,
                                const std::string& label) {
  std::vector<std::uint64_t> want = keys;
  std::sort(want.begin(), want.end());
  ThreadPool one(1), four(4);
  for (ThreadPool* pool : {&one, &four}) {
    std::vector<std::uint64_t> got = keys;
    parallel_radix_sort(got, *pool);
    EXPECT_EQ(got, want) << label << " on " << pool->thread_count() << " threads";
  }
}

std::vector<std::uint64_t> random_keys(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint64_t> keys(n);
  for (std::uint64_t& key : keys) key = rng.next();
  return keys;
}

TEST(RadixSort, TinyInputs) {
  expect_sorts_like_std_sort({}, "empty");
  expect_sorts_like_std_sort({42}, "one key");
  expect_sorts_like_std_sort({7, 3}, "two keys, reversed");
  expect_sorts_like_std_sort({3, 7}, "two keys, sorted");
  expect_sorts_like_std_sort({~std::uint64_t{0}, 0}, "extreme keys");
}

TEST(RadixSort, RandomKeys) {
  expect_sorts_like_std_sort(random_keys(20000, 1), "random 64-bit");
  std::vector<std::uint64_t> narrow = random_keys(20000, 2);
  for (std::uint64_t& key : narrow) key %= 1000;  // many duplicates
  expect_sorts_like_std_sort(narrow, "random with duplicates");
}

TEST(RadixSort, AllEqualKeys) {
  expect_sorts_like_std_sort(std::vector<std::uint64_t>(5000, 0x0123456789ABCDEFull),
                             "all equal");
  expect_sorts_like_std_sort(std::vector<std::uint64_t>(5000, 0), "all zero");
}

TEST(RadixSort, ConstantDigitsAreSkippedWithoutReordering) {
  // Keys whose low, middle or high 11-bit digits are constant (and a key
  // that differs in one bit of an otherwise constant digit).
  std::vector<std::uint64_t> low = random_keys(9000, 3);
  std::vector<std::uint64_t> middle = random_keys(9000, 4);
  std::vector<std::uint64_t> high = random_keys(9000, 5);
  for (std::uint64_t& key : low) key = (key & ~std::uint64_t{0x3FFFFF}) | 0x12345;
  for (std::uint64_t& key : middle) {
    key = (key & ~(std::uint64_t{0x7FF} << 33)) | (5ull << 33);
  }
  for (std::uint64_t& key : high) key = (key >> 20) | (0xABCull << 52);
  expect_sorts_like_std_sort(low, "constant low digits");
  expect_sorts_like_std_sort(middle, "constant middle digit");
  expect_sorts_like_std_sort(high, "constant high digits");
  std::vector<std::uint64_t> one_bit = high;
  one_bit[4321] ^= std::uint64_t{1} << 60;
  expect_sorts_like_std_sort(one_bit, "one bit differs in a high digit");
}

TEST(RadixSort, CandidateKeysInPairThenStepOrder) {
  // Packed candidate keys of a small population, appended in no order:
  // the sort puts them in (sat_a, sat_b, step) order.
  Rng rng(6);
  std::vector<std::uint64_t> keys;
  const auto skip = [&rng](std::size_t most) {
    return 1 + static_cast<std::uint32_t>(rng.uniform_index(most));
  };
  for (std::uint32_t a = 0; a < 60; ++a) {
    for (std::uint32_t b = a + 1; b < 60; b += skip(7)) {
      for (std::uint32_t step = 0; step < 113; step += skip(40)) {
        keys.push_back(pack_candidate(b, a, step));
      }
    }
  }
  for (std::size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.uniform_index(i)]);
  }
  expect_sorts_like_std_sort(keys, "candidate keys");
}

TEST(RadixSort, SizesThatDoNotDivideByTheThreadCount) {
  for (const std::size_t n : {3u, 5u, 4097u, 10001u}) {
    expect_sorts_like_std_sort(random_keys(n, 100 + n), "n = " + std::to_string(n));
  }
}

}  // namespace
}  // namespace scod
