// Fixture: MMF001 clean variants — sorted-copy iteration and justified
// ordered-ok annotations (both placement styles). Must be MMF001-clean; the
// inline FNV constants are MMF007 private-hasher findings.
#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

std::uint64_t hash_everything() {
  std::unordered_map<std::string, int> widths;
  widths.emplace("a", 1);
  // Extract, sort, then consume in canonical order: point lookups and
  // size() on unordered containers are always fine; only traversal order
  // is unspecified.
  std::vector<std::pair<std::string, int>> sorted;
  sorted.reserve(widths.size());
  // mmflow-lint: ordered-ok(collects pairs only; the hash below consumes the sorted copy)
  for (const auto& entry : widths) sorted.push_back(entry);
  std::sort(sorted.begin(), sorted.end());
  std::uint64_t h = 0xcbf29ce484222325ull;  // expect-lint: MMF007
  for (const auto& [name, w] : sorted) {
    for (const char c : name) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;  // expect-lint: MMF007
    h = (h ^ static_cast<std::uint64_t>(w)) * 0x100000001b3ull;  // expect-lint: MMF007
  }
  return h;
}

int count_even(const std::unordered_set<int>& seen) {
  int even = 0;
  for (const int v : seen) {  // mmflow-lint: ordered-ok(commutative integer count)
    even += (v % 2 == 0) ? 1 : 0;
  }
  return even;
}

bool contains(const std::unordered_set<int>& seen, int v) {
  return seen.find(v) != seen.end();  // point lookup: no order observed
}
