// Fixture: MMF007 clean variant — hashing composed on the shared hasher,
// and numbers that merely contain the FNV digits. Must lint clean.
#include <cstdint>
#include <string_view>

#include "common/hash.h"

std::uint64_t checksum(std::string_view data) {
  mmflow::hash::Fnv1a fnv;
  fnv.bytes(data);
  fnv.byte(0xff);  // call-site framing: a terminator
  return fnv.h;
}

// Prefixes, extensions and other mixing constants are not FNV constants;
// neither are mentions in comments (1099511628211) or strings.
constexpr std::uint64_t kShort = 109951162821ULL;
constexpr std::uint64_t kLong = 10995116282110ULL;
constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ull;
constexpr const char* kDoc = "offset basis 0xcbf29ce484222325";
constexpr double kNotInt = 1099511628211.5;
