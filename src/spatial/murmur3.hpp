#pragma once

#include <cstddef>
#include <cstdint>

namespace scod {

/// MurmurHash3 (Austin Appleby, public domain) — the hash the paper uses to
/// map grid-cell keys to hash-map slots. We provide the 64-bit finalizer
/// (the slot-index path used in the hot loop, where the key is already a
/// packed 64-bit cell coordinate) and the full x64 128-bit variant for
/// arbitrary byte strings.

/// The fmix64 finalizer: a full-avalanche mix of a 64-bit value.
constexpr std::uint64_t murmur3_fmix64(std::uint64_t k) {
  k ^= k >> 33;
  k *= 0xFF51AFD7ED558CCDull;
  k ^= k >> 33;
  k *= 0xC4CEB9FE1A85EC53ull;
  k ^= k >> 33;
  return k;
}

/// MurmurHash3_x64_128 over an arbitrary byte buffer; returns the low and
/// high 64 bits through the out parameters.
void murmur3_x64_128(const void* data, std::size_t len, std::uint64_t seed,
                     std::uint64_t* out_low, std::uint64_t* out_high);

/// Convenience: 64-bit hash of a byte buffer (low half of the 128-bit hash).
std::uint64_t murmur3_x64_64(const void* data, std::size_t len, std::uint64_t seed = 0);

/// The smallest power of two >= v: the slot count of the open-addressed
/// hash sets, so a hash maps to a slot with a mask.
constexpr std::size_t round_up_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace scod
