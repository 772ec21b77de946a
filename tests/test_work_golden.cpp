#include <gtest/gtest.h>

#include <map>
#include <string>

#include "apps/suites.h"
#include "common/perf.h"
#include "core/flows.h"

namespace mmflow::core {
namespace {

/// The exact work of one experiment per engine: the MCNC suite's first pair
/// (clone10+clone11) at anneal effort 1 and flow seed 1000, one routing job,
/// no caches. The counters are a pure function of these inputs, so any
/// change to them is a change to the work the flow does: a perf change
/// states its delta here, and a change that should do the same work must
/// leave them alone.
std::map<std::string, std::uint64_t> work_of(CombinedCost engine) {
  apps::SuiteOptions suite_options;
  suite_options.limit_pairs = 1;
  const auto bench = apps::suite_by_name("mcnc", suite_options).front();
  FlowOptions options;
  options.cost_engine = engine;
  options.seed = 1000;
  options.anneal.inner_num = 1.0;
  perf::reset();
  (void)run_experiment(bench.modes, options);
  std::map<std::string, std::uint64_t> work;
  for (const char* name :
       {"route.width_probes", "route.width_probes_bounded", "route.iterations",
        "route.heap_pops", "place.moves_proposed",
        "combined_place.moves_proposed"}) {
    work[name] = perf::counter_value(name);
  }
  return work;
}

TEST(WorkGolden, EdgeMatch) {
  const std::map<std::string, std::uint64_t> expected = {
      {"route.width_probes", 5},
      {"route.width_probes_bounded", 1},
      {"route.iterations", 259},
      {"route.heap_pops", 6948675},
      {"place.moves_proposed", 620331},
      {"combined_place.moves_proposed", 272650},
  };
  EXPECT_EQ(work_of(CombinedCost::EdgeMatch), expected);
}

TEST(WorkGolden, WireLength) {
  const std::map<std::string, std::uint64_t> expected = {
      {"route.width_probes", 5},
      {"route.width_probes_bounded", 1},
      {"route.iterations", 279},
      {"route.heap_pops", 12379274},
      {"place.moves_proposed", 388374},
      {"combined_place.moves_proposed", 423790},
  };
  EXPECT_EQ(work_of(CombinedCost::WireLength), expected);
}

}  // namespace
}  // namespace mmflow::core
