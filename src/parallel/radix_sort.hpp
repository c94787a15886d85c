#pragma once

#include <cstdint>
#include <vector>

#include "parallel/thread_pool.hpp"

namespace scod {

/// Sorts `keys` ascending on `pool`: a least-significant-digit radix sort
/// over 11-bit digits. Each pass splits the keys into one contiguous block
/// per worker, counts the block's digits, turns the counts into per-worker
/// output offsets (workers in block order, so the pass is stable) and
/// scatters each key once. A digit on which every key agrees (zero in the
/// OR ^ AND of all keys) cannot reorder anything and is skipped, so a
/// population whose indices and steps fill only part of their key fields
/// pays only for the digits they use. The result is exactly std::sort's;
/// the pass holds one scratch copy of the keys.
void parallel_radix_sort(std::vector<std::uint64_t>& keys, ThreadPool& pool);

}  // namespace scod
