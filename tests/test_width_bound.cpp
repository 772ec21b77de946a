#include <gtest/gtest.h>

#include "apps/suites.h"
#include "common/perf.h"
#include "core/flows.h"

namespace mmflow::core {
namespace {

arch::ArchSpec grid_3x3(int width) {
  arch::ArchSpec spec;
  spec.nx = 3;
  spec.ny = 3;
  spec.channel_width = width;
  return spec;
}

arch::Site pad(int x, int y, int sub) {
  return arch::Site{arch::Site::Type::Pad, static_cast<std::int16_t>(x),
                    static_cast<std::int16_t>(y),
                    static_cast<std::int16_t>(sub)};
}

/// Six nets from the left pads to the right pads of a 3x3 region, active in
/// mode `m % num_modes` of net m.
SiteRouteSpec left_to_right(int num_modes) {
  SiteRouteSpec spec;
  spec.num_modes = num_modes;
  for (int y = 1; y <= 3; ++y) {
    for (int sub = 0; sub < 2; ++sub) {
      const auto m = static_cast<int>(spec.nets.size()) % num_modes;
      spec.nets.push_back(SiteRouteSpec::Net{
          "n" + std::to_string(spec.nets.size()), pad(0, y, sub),
          {SiteRouteSpec::Conn{pad(4, 4 - y, sub), route::ModeMask{1} << m}}});
    }
  }
  return spec;
}

TEST(ChannelCutBound, CountsNetsCrossingAColumnPerMode) {
  // Six nets cross every column; a column has ny + 1 = 4 CHANX rows.
  EXPECT_EQ(channel_cut_bound(left_to_right(1), grid_3x3(8)), 2);
  SiteRouteSpec four = left_to_right(1);
  four.nets.resize(4);
  EXPECT_EQ(channel_cut_bound(four, grid_3x3(8)), 1);
  // Three per mode: the modes share the wires.
  EXPECT_EQ(channel_cut_bound(left_to_right(2), grid_3x3(8)), 1);
  // The row bound: the same nets turned on their side.
  SiteRouteSpec bottom_to_top = left_to_right(1);
  for (auto& net : bottom_to_top.nets) {
    std::swap(net.source.x, net.source.y);
    std::swap(net.conns[0].sink.x, net.conns[0].sink.y);
  }
  EXPECT_EQ(channel_cut_bound(bottom_to_top, grid_3x3(8)), 2);
  // A connection inactive in every mode crosses nothing.
  SiteRouteSpec idle = left_to_right(1);
  for (auto& net : idle.nets) net.conns[0].modes = 0;
  EXPECT_EQ(channel_cut_bound(idle, grid_3x3(8)), 1);
}

TEST(ChannelCutBound, NothingRoutesBelowIt) {
  for (const int modes : {1, 2}) {
    const SiteRouteSpec spec = left_to_right(modes);
    const int bound = channel_cut_bound(spec, grid_3x3(1));
    for (int width = 1; width < bound; ++width) {
      const arch::RoutingGraph rrg(grid_3x3(width));
      EXPECT_FALSE(route::route(rrg, spec.instantiate(rrg)).success)
          << "routed at width " << width << " below bound " << bound;
    }
    const arch::RoutingGraph rrg(grid_3x3(bound + 1));
    EXPECT_TRUE(route::route(rrg, spec.instantiate(rrg)).success);
  }
}

/// Exactness on the suites' first pairs: every width the bound settles in the
/// experiment's search really fails when routed, the way the flow probes it
/// (each MDR mode, then the DCS circuit, stopping at the first failure).
/// Since the verdicts a search saw all agree with `width >= min_width`, the
/// unbounded search on the real verdicts below the bound and on those
/// verdicts above it must then find the experiment's `min_width`.
TEST(WidthLowerBound, SettledWidthsFailAndTheMinimumStands) {
  for (const char* suite : {"regexp", "fir", "mcnc"}) {
    apps::SuiteOptions suite_options;
    suite_options.limit_pairs = 1;
    const auto bench = apps::suite_by_name(suite, suite_options).front();
    FlowOptions options;
    options.cost_engine = CombinedCost::EdgeMatch;
    options.seed = 1000;
    options.anneal.inner_num = 1.0;
    perf::reset();
    const MultiModeExperiment exp = run_experiment(bench.modes, options);
    const int bound = width_lower_bound(exp, exp.region);

    std::vector<int> settled;
    for (const int width :
         route::searched_widths(exp.min_width, options.max_channel_width)) {
      if (width < bound) settled.push_back(width);
    }
    EXPECT_EQ(perf::counter_value("route.width_probes_bounded"),
              settled.size())
        << suite;

    auto probe = [&](int width) {
      arch::ArchSpec spec = exp.region;
      spec.channel_width = width;
      const arch::RoutingGraph rrg(spec);
      for (const ModeImpl& impl : exp.mdr) {
        if (!route::route(rrg, impl.route_spec.instantiate(rrg)).success) {
          return false;
        }
      }
      return route::route(rrg, exp.dcs_route_spec.instantiate(rrg)).success;
    };
    const int unbounded = route::search_min_width(
        [&](int width) {
          if (width >= bound) return width >= exp.min_width;
          const bool routed = probe(width);
          EXPECT_FALSE(routed) << suite << " routes at settled width " << width;
          return routed;
        },
        options.max_channel_width);
    EXPECT_EQ(unbounded, exp.min_width) << suite;
    EXPECT_LE(bound, exp.min_width) << suite;
  }
}

}  // namespace
}  // namespace mmflow::core
