// FNV-1a (64-bit): the one fold behind every deterministic fingerprint in
// the stack — key routing, state-machine agreement hashes and snapshot
// digests. Integers fold little-endian, one byte at a time, so a u64 fold
// equals the byte fold of its 8-byte little-endian encoding.

#pragma once

#include <cstdint>

#include "src/util/bytes.hpp"

namespace mnm::util {

inline constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

inline std::uint64_t fnv1a(std::uint64_t h, ByteView bytes) {
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= kFnvPrime;
  }
  return h;
}

inline std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= static_cast<std::uint8_t>(v >> (i * 8));
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace mnm::util
