// Fixture: MMF007 private-hasher violations. Not compiled; scanned by
// tests/lint/run_lint_tests.py. Every spelling of the FNV-1a 64-bit prime
// and offset basis outside src/common/hash.h is a private hasher.
#include <cstdint>
#include <string_view>

std::uint64_t checksum(std::string_view data) {
  std::uint64_t h = 1469598103934665603ULL;  // expect-lint: MMF007
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;  // expect-lint: MMF007
  }
  return h;
}

constexpr std::uint64_t kBasis = 14695981039346656037u;  // expect-lint: MMF007
constexpr std::uint64_t kBasisHex = 0xCBF29CE484222325;  // expect-lint: MMF007
constexpr std::uint64_t kPrimeHex = 0x00000100000001b3ull;  // expect-lint: MMF007
