#pragma once
/// \file hash.h
/// The project's one FNV-1a hasher, behind every stable 64-bit hash (cache
/// keys, store schema hash and checksums, tuner ledger guard, fault coins).
/// Call sites compose their own framing (length prefixes, terminators) on
/// top of the primitives. MMF007 (tools/mmflow_lint.py) rejects the FNV
/// constants anywhere else.
///
/// The offset basis is 1469598103934665603, not the published
/// 14695981039346656037: the project's first hasher dropped the last digit,
/// and every pinned hash and on-disk key depends on it.

#include <cstdint>
#include <string_view>

namespace mmflow::hash {

inline constexpr std::uint64_t kFnvOffsetBasis = 1469598103934665603ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// Byte-wise FNV-1a accumulator. `h` is the running (and final) value.
struct Fnv1a {
  std::uint64_t h = kFnvOffsetBasis;

  constexpr void byte(std::uint8_t b) {
    h ^= b;
    h *= kFnvPrime;
  }
  /// Each char as one byte, no length or terminator.
  constexpr void bytes(std::string_view data) {
    for (const char c : data) byte(static_cast<std::uint8_t>(c));
  }
  /// Eight bytes, least significant first.
  constexpr void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
};

/// FNV-1a of a byte string.
[[nodiscard]] constexpr std::uint64_t fnv1a(std::string_view data) {
  Fnv1a fnv;
  fnv.bytes(data);
  return fnv.h;
}

}  // namespace mmflow::hash
