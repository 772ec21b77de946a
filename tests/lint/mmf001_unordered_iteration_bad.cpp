// Fixture: MMF001 unordered-iteration violations. Not compiled; scanned by
// tests/lint/run_lint_tests.py. Each `expect-lint` marker pins the exact
// diagnostic (rule + line) mmflow_lint.py must emit for this file.
#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>

std::uint64_t hash_everything() {
  std::unordered_map<std::string, int> widths;
  widths.emplace("a", 1);
  std::uint64_t h = 0xcbf29ce484222325ull;  // expect-lint: MMF007
  for (const auto& [name, w] : widths) {  // expect-lint: MMF001
    for (const char c : name) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;  // expect-lint: MMF007
    h = (h ^ static_cast<std::uint64_t>(w)) * 0x100000001b3ull;  // expect-lint: MMF007
  }
  return h;
}

int first_key() {
  std::unordered_set<int> seen{3, 1, 2};
  auto it = seen.begin();  // expect-lint: MMF001
  return *it;
}

// Aliased unordered types are tracked through the alias.
using SiteTable = std::unordered_map<int, double>;

double sum_sites(const SiteTable& sites) {
  double total = 0.0;
  for (const auto& [site, cost] : sites) {  // expect-lint: MMF001
    total += cost;  // FP sum: addend order changes the result bits
  }
  return total;
}
