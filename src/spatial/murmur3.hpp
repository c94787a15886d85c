#pragma once

#include <cstddef>
#include <cstdint>

namespace scod {

/// MurmurHash3 (Austin Appleby, public domain) — the hash the paper uses to
/// map grid-cell keys to hash-map slots. The key is already a packed 64-bit
/// cell coordinate, so only the 64-bit finalizer is needed.

/// The fmix64 finalizer: a full-avalanche mix of a 64-bit value.
constexpr std::uint64_t murmur3_fmix64(std::uint64_t k) {
  k ^= k >> 33;
  k *= 0xFF51AFD7ED558CCDull;
  k ^= k >> 33;
  k *= 0xC4CEB9FE1A85EC53ull;
  k ^= k >> 33;
  return k;
}

/// The smallest power of two >= v: the slot count of the open-addressed
/// hash sets, so a hash maps to a slot with a mask.
constexpr std::size_t round_up_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace scod
