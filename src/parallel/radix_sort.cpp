#include "parallel/radix_sort.hpp"

#include <algorithm>
#include <array>
#include <memory>

namespace scod {

namespace {

constexpr unsigned kDigitBits = 11;
constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
constexpr std::uint64_t kDigitMask = kBuckets - 1;

}  // namespace

void parallel_radix_sort(std::vector<std::uint64_t>& keys, ThreadPool& pool) {
  const std::size_t n = keys.size();
  if (n < 2) return;
  // Worker w owns keys [begin(w), begin(w + 1)) in every pass.
  const std::size_t blocks = std::min(pool.thread_count(), n);
  const auto begin = [n, blocks](std::size_t w) {
    return n / blocks * w + std::min(w, n % blocks);
  };

  // The bits on which some keys differ.
  std::vector<std::uint64_t> any(blocks, 0), all(blocks, ~std::uint64_t{0});
  pool.run_on_all([&](std::size_t w) {
    if (w >= blocks) return;
    std::uint64_t block_any = 0, block_all = ~std::uint64_t{0};
    for (std::size_t i = begin(w); i < begin(w + 1); ++i) {
      block_any |= keys[i];
      block_all &= keys[i];
    }
    any[w] = block_any;
    all[w] = block_all;
  });
  std::uint64_t any_key = 0, all_keys = ~std::uint64_t{0};
  for (std::size_t w = 0; w < blocks; ++w) {
    any_key |= any[w];
    all_keys &= all[w];
  }
  const std::uint64_t varying = any_key ^ all_keys;
  if (varying == 0) return;

  // Allocated uninitialised: the first scatter writes every element.
  const std::unique_ptr<std::uint64_t[]> scratch(new std::uint64_t[n]);
  std::uint64_t* src = keys.data();
  std::uint64_t* dst = scratch.get();
  std::vector<std::array<std::size_t, kBuckets>> offsets(blocks);
  for (unsigned shift = 0; shift < 64; shift += kDigitBits) {
    if (((varying >> shift) & kDigitMask) == 0) continue;
    pool.run_on_all([&](std::size_t w) {
      if (w >= blocks) return;
      std::array<std::size_t, kBuckets>& count = offsets[w];
      count.fill(0);
      for (std::size_t i = begin(w); i < begin(w + 1); ++i) {
        ++count[(src[i] >> shift) & kDigitMask];
      }
    });
    // Digit value first, worker second: a worker's keys of one digit land
    // after those of every earlier worker, which keeps the pass stable.
    std::size_t next = 0;
    for (std::size_t digit = 0; digit < kBuckets; ++digit) {
      for (std::size_t w = 0; w < blocks; ++w) {
        const std::size_t count = offsets[w][digit];
        offsets[w][digit] = next;
        next += count;
      }
    }
    pool.run_on_all([&](std::size_t w) {
      if (w >= blocks) return;
      std::array<std::size_t, kBuckets>& out = offsets[w];
      for (std::size_t i = begin(w); i < begin(w + 1); ++i) {
        dst[out[(src[i] >> shift) & kDigitMask]++] = src[i];
      }
    });
    std::swap(src, dst);
  }
  if (src != keys.data()) {
    pool.run_on_all([&](std::size_t w) {
      if (w >= blocks) return;
      std::copy(src + begin(w), src + begin(w + 1), keys.data() + begin(w));
    });
  }
}

}  // namespace scod
