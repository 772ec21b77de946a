#include "common/perf.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <limits>
#include <mutex>
#include <sstream>
#include <ostream>

namespace mmflow::perf {

namespace {

/// Backing store with pointer-stable entries (deque never relocates).
/// Entries are atomics, so only the name table needs the mutex.
struct Store {
  mutable std::mutex mutex;
  std::deque<std::pair<std::string, Counter>> counters;
  std::deque<std::pair<std::string, Timer>> timers;
};

Store& store() {
  static Store s;
  return s;
}

}  // namespace

std::string json_escaped(std::string_view text) {
  std::string out;
  for (const char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    if (byte < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(byte));
      out += buf;
      continue;
    }
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << value;
  return os.str();
}

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

Counter& Registry::counter(std::string_view name) {
  Store& s = store();
  const std::lock_guard<std::mutex> lock(s.mutex);
  for (auto& [n, value] : s.counters) {
    if (n == name) return value;
  }
  s.counters.emplace_back(std::piecewise_construct,
                          std::forward_as_tuple(name),
                          std::forward_as_tuple());
  return s.counters.back().second;
}

Timer& Registry::timer(std::string_view name) {
  Store& s = store();
  const std::lock_guard<std::mutex> lock(s.mutex);
  for (auto& [n, value] : s.timers) {
    if (n == name) return value;
  }
  s.timers.emplace_back(std::piecewise_construct, std::forward_as_tuple(name),
                        std::forward_as_tuple());
  return s.timers.back().second;
}

void Registry::reset() {
  Store& s = store();
  const std::lock_guard<std::mutex> lock(s.mutex);
  for (auto& [n, value] : s.counters) {
    value.store(0, std::memory_order_relaxed);
  }
  for (auto& [n, value] : s.timers) value.reset();
}

std::vector<std::pair<std::string, std::uint64_t>> Registry::counters() const {
  Store& s = store();
  const std::lock_guard<std::mutex> lock(s.mutex);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(s.counters.size());
  for (const auto& [n, value] : s.counters) {
    out.emplace_back(n, value.load(std::memory_order_relaxed));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<std::string, TimerStat>> Registry::timers() const {
  Store& s = store();
  const std::lock_guard<std::mutex> lock(s.mutex);
  std::vector<std::pair<std::string, TimerStat>> out;
  out.reserve(s.timers.size());
  for (const auto& [n, value] : s.timers) {
    out.emplace_back(n, value.snapshot());
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

std::uint64_t Registry::counter_value(std::string_view name) const {
  Store& s = store();
  const std::lock_guard<std::mutex> lock(s.mutex);
  for (const auto& [n, value] : s.counters) {
    if (n == name) return value.load(std::memory_order_relaxed);
  }
  return 0;
}

void Registry::write_json(std::ostream& os, int indent) const {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  const std::string pad2(static_cast<std::size_t>(indent) + 2, ' ');
  const std::string pad4(static_cast<std::size_t>(indent) + 4, ' ');

  const auto cs = counters();
  const auto ts = timers();

  os << "{\n" << pad2 << "\"counters\": {";
  for (std::size_t i = 0; i < cs.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n") << pad4 << '"' << json_escaped(cs[i].first)
       << "\": " << cs[i].second;
  }
  os << (cs.empty() ? "" : "\n" + pad2) << "},\n";

  os << pad2 << "\"timers_ms\": {";
  for (std::size_t i = 0; i < ts.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n") << pad4 << '"' << json_escaped(ts[i].first)
       << "\": {\"total_ms\": "
       << json_number(static_cast<double>(ts[i].second.total_ns) / 1e6)
       << ", \"count\": " << ts[i].second.count << '}';
  }
  os << (ts.empty() ? "" : "\n" + pad2) << "}\n" << pad << '}';
}

}  // namespace mmflow::perf
