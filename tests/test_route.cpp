#include <gtest/gtest.h>

#include <deque>

#include "arch/rrg.h"
#include "common/perf.h"
#include "common/rng.h"
#include "route/router.h"

namespace mmflow::route {
namespace {

arch::ArchSpec spec_with(int n, int w) {
  arch::ArchSpec spec;
  spec.nx = n;
  spec.ny = n;
  spec.channel_width = w;
  return spec;
}

/// Audits a successful result against first principles: each connection's
/// path starts at the net source, ends at its sink, follows RRG edges, and
/// no (node, mode) carries two different (net, driver) pairs.
void audit(const arch::RoutingGraph& rrg, const RouteProblem& problem,
           const RouteResult& result) {
  ASSERT_TRUE(result.success);
  struct Claim {
    std::int32_t net = -1;
    std::int32_t edge = -1;
  };
  std::vector<Claim> claims(rrg.num_nodes() *
                            static_cast<std::size_t>(problem.num_modes));
  for (const RoutedConn& rc : result.conns) {
    const auto& net = problem.nets[rc.net];
    const auto& conn = net.conns[rc.conn];
    ASSERT_FALSE(rc.nodes.empty());
    EXPECT_EQ(rc.nodes.front(), net.source_node);
    EXPECT_EQ(rc.nodes.back(), conn.sink_node);
    ASSERT_EQ(rc.edges.size() + 1, rc.nodes.size());
    for (std::size_t i = 0; i < rc.edges.size(); ++i) {
      const auto& e = rrg.edge(rc.edges[i]);
      EXPECT_EQ(e.from, rc.nodes[i]);
      EXPECT_EQ(e.to, rc.nodes[i + 1]);
    }
    for (std::size_t i = 0; i < rc.nodes.size(); ++i) {
      const std::int32_t edge =
          i == 0 ? -1 : static_cast<std::int32_t>(rc.edges[i - 1]);
      for (int m = 0; m < problem.num_modes; ++m) {
        if (!(conn.modes >> m & 1)) continue;
        Claim& c = claims[static_cast<std::size_t>(rc.nodes[i]) *
                              problem.num_modes + m];
        if (c.net == -1) {
          c.net = static_cast<std::int32_t>(rc.net);
          c.edge = edge;
        } else {
          EXPECT_EQ(c.net, static_cast<std::int32_t>(rc.net))
              << "two nets on node " << rc.nodes[i] << " in mode " << m;
          EXPECT_EQ(c.edge, edge) << "two drivers on node " << rc.nodes[i];
        }
      }
    }
  }
}

TEST(Router, SingleConnection) {
  const arch::RoutingGraph rrg(spec_with(4, 3));
  RouteProblem problem;
  problem.num_modes = 1;
  RouteNet net;
  net.name = "n0";
  net.source_node = rrg.clb_source(1, 1);
  net.conns.push_back(RouteConn{rrg.clb_sink(4, 4), 1});
  problem.nets.push_back(net);

  const RouteResult result = route(rrg, problem);
  audit(rrg, problem, result);
  EXPECT_GE(result.conns[0].nodes.size(), 4u);  // src, opin, wires..., ipin, sink
}

TEST(Router, FanoutSharesTrunk) {
  const arch::RoutingGraph rrg(spec_with(5, 4));
  RouteProblem problem;
  RouteNet net;
  net.name = "fan";
  net.source_node = rrg.clb_source(1, 3);
  net.conns.push_back(RouteConn{rrg.clb_sink(5, 3), 1});
  net.conns.push_back(RouteConn{rrg.clb_sink(5, 2), 1});
  net.conns.push_back(RouteConn{rrg.clb_sink(5, 4), 1});
  problem.nets.push_back(net);

  const RouteResult result = route(rrg, problem);
  audit(rrg, problem, result);
  // With the share discount the three paths should reuse trunk wires:
  // total distinct wires well below the sum of the three path lengths.
  std::size_t total_path_wires = 0;
  for (const auto& rc : result.conns) {
    for (const auto n : rc.nodes) total_path_wires += rrg.is_wire(n) ? 1 : 0;
  }
  EXPECT_LT(result.total_wirelength(rrg), total_path_wires);
}

TEST(Router, CongestionNegotiation) {
  // Many nets crossing a narrow channel force negotiation.
  const arch::RoutingGraph rrg(spec_with(4, 3));
  RouteProblem problem;
  for (int y = 1; y <= 4; ++y) {
    RouteNet net;
    net.name = "h" + std::to_string(y);
    net.source_node = rrg.clb_source(1, y);
    net.conns.push_back(RouteConn{rrg.clb_sink(4, y), 1});
    problem.nets.push_back(net);
    RouteNet net2;
    net2.name = "d" + std::to_string(y);
    net2.source_node = rrg.clb_source(2, y);
    net2.conns.push_back(RouteConn{rrg.clb_sink(3, (y % 4) + 1), 1});
    problem.nets.push_back(net2);
  }
  const RouteResult result = route(rrg, problem);
  audit(rrg, problem, result);
}

TEST(Router, CrossModeSharingIsLegal) {
  // Two different nets with the same source/sink sites but in different
  // modes: they may overlap on wires.
  const arch::RoutingGraph rrg(spec_with(4, 2));
  RouteProblem problem;
  problem.num_modes = 2;
  RouteNet a;
  a.name = "modeA";
  a.source_node = rrg.clb_source(1, 1);
  a.conns.push_back(RouteConn{rrg.clb_sink(4, 4), 0b01});
  RouteNet b;
  b.name = "modeB";
  b.source_node = rrg.clb_source(1, 1);
  b.conns.push_back(RouteConn{rrg.clb_sink(4, 4), 0b10});
  problem.nets.push_back(a);
  problem.nets.push_back(b);

  const RouteResult result = route(rrg, problem);
  audit(rrg, problem, result);
}

TEST(Router, MergedConnectionIsStatic) {
  // One connection active in both modes: its routing bits must be identical
  // across modes (zero parameterized bits).
  const arch::RoutingGraph rrg(spec_with(4, 3));
  RouteProblem problem;
  problem.num_modes = 2;
  RouteNet net;
  net.name = "merged";
  net.source_node = rrg.clb_source(1, 1);
  net.conns.push_back(RouteConn{rrg.clb_sink(3, 3), 0b11});
  problem.nets.push_back(net);

  const RouteResult result = route(rrg, problem);
  audit(rrg, problem, result);
  const auto states = result.per_mode_states(rrg, problem);
  const bitstream::ConfigModel model(rrg, bitstream::MuxEncoding::Binary);
  EXPECT_EQ(model.parameterized_routing_bits(states), 0u);
  EXPECT_GT(model.used_routing_bits(states[0]), 0u);
}

TEST(Router, UnmergedConnectionsAreParameterized) {
  // Same endpoints but separate per-mode connections of *different* nets:
  // bits should differ across modes unless the router happens to align them
  // (different nets may still share wires across modes; drivers of IPIN of
  // two different nets from different wires differ with high probability).
  const arch::RoutingGraph rrg(spec_with(4, 3));
  RouteProblem problem;
  problem.num_modes = 2;
  RouteNet a;
  a.name = "a";
  a.source_node = rrg.clb_source(1, 1);
  a.conns.push_back(RouteConn{rrg.clb_sink(3, 3), 0b01});
  RouteNet b;
  b.name = "b";
  b.source_node = rrg.clb_source(1, 2);  // different source site
  b.conns.push_back(RouteConn{rrg.clb_sink(3, 3), 0b10});
  problem.nets.push_back(a);
  problem.nets.push_back(b);

  const RouteResult result = route(rrg, problem);
  audit(rrg, problem, result);
  const auto states = result.per_mode_states(rrg, problem);
  const bitstream::ConfigModel model(rrg, bitstream::MuxEncoding::Binary);
  EXPECT_GT(model.parameterized_routing_bits(states), 0u);
}

TEST(Router, PadToPadRouting) {
  const arch::RoutingGraph rrg(spec_with(3, 2));
  const arch::DeviceGrid grid(spec_with(3, 2));
  RouteProblem problem;
  RouteNet net;
  net.name = "io";
  net.source_node = rrg.pad_source(grid.pad_site(0));
  net.conns.push_back(RouteConn{rrg.pad_sink(grid.pad_site(17)), 1});
  problem.nets.push_back(net);
  const RouteResult result = route(rrg, problem);
  audit(rrg, problem, result);
}

TEST(Router, WirelengthPerMode) {
  const arch::RoutingGraph rrg(spec_with(4, 3));
  RouteProblem problem;
  problem.num_modes = 2;
  RouteNet a;
  a.name = "a";
  a.source_node = rrg.clb_source(1, 1);
  a.conns.push_back(RouteConn{rrg.clb_sink(4, 1), 0b01});
  problem.nets.push_back(a);
  const RouteResult result = route(rrg, problem);
  audit(rrg, problem, result);
  EXPECT_GT(result.wirelength_of_mode(rrg, problem, 0), 0u);
  EXPECT_EQ(result.wirelength_of_mode(rrg, problem, 1), 0u);
}

TEST(Router, DeterministicForSeed) {
  const arch::RoutingGraph rrg(spec_with(4, 2));
  RouteProblem problem;
  for (int i = 1; i <= 4; ++i) {
    RouteNet net;
    net.name = "n" + std::to_string(i);
    net.source_node = rrg.clb_source(i, 1);
    net.conns.push_back(RouteConn{rrg.clb_sink(5 - i, 4), 1});
    problem.nets.push_back(net);
  }
  const RouteResult r1 = route(rrg, problem);
  const RouteResult r2 = route(rrg, problem);
  ASSERT_EQ(r1.conns.size(), r2.conns.size());
  for (std::size_t i = 0; i < r1.conns.size(); ++i) {
    EXPECT_EQ(r1.conns[i].nodes, r2.conns[i].nodes);
  }
}

TEST(Router, SplitEscapeHatchKeepsLegality) {
  // A three-mode merged connection pins the same physical path (wires, pins)
  // in every mode; saturating a width-1 fabric with different per-mode cross
  // traffic makes that joint colouring unsatisfiable, so the router must use
  // the split-conflicted-connection escape hatch and realise the connection
  // as per-mode pieces.
  const int n = 4;
  const arch::RoutingGraph rrg(spec_with(n, 1));
  RouteProblem problem;
  problem.num_modes = 3;
  RouteNet merged;
  merged.name = "merged";
  merged.source_node = rrg.clb_source(1, 1);
  merged.conns.push_back(RouteConn{rrg.clb_sink(n, n), 0b111});
  problem.nets.push_back(merged);
  for (int m = 0; m < 3; ++m) {
    for (int y = 2; y <= n; ++y) {
      RouteNet h;
      h.name = "h" + std::to_string(m) + "_" + std::to_string(y);
      h.source_node = rrg.clb_source(2, y);
      h.conns.push_back(RouteConn{rrg.clb_sink(n, (y % n) + 1),
                                  static_cast<ModeMask>(1u << m)});
      problem.nets.push_back(h);
    }
  }

  RouterOptions options;
  options.split_conflicted_after = 4;
  const RouteResult result = route(rrg, problem, options);
  ASSERT_TRUE(result.success);

  // The merged connection was split: several pieces with disjoint sub-masks
  // whose union is the original activation set, each a complete path.
  std::vector<const RoutedConn*> pieces;
  for (const RoutedConn& rc : result.conns) {
    if (rc.net == 0) pieces.push_back(&rc);
  }
  ASSERT_GT(pieces.size(), 1u);
  ModeMask covered = 0;
  for (const RoutedConn* rc : pieces) {
    EXPECT_EQ(covered & rc->modes, 0u) << "overlapping sub-masks";
    covered |= rc->modes;
    ASSERT_FALSE(rc->nodes.empty());
    EXPECT_EQ(rc->nodes.front(), problem.nets[0].source_node);
    EXPECT_EQ(rc->nodes.back(), problem.nets[0].conns[0].sink_node);
  }
  EXPECT_EQ(covered, 0b111u);

  // Post-split legality, keyed by each RoutedConn's own (refined) mask: no
  // (node, mode) carries two different (net, driver) pairs.
  struct Claim {
    std::int32_t net = -1;
    std::int32_t edge = -1;
  };
  std::vector<Claim> claims(rrg.num_nodes() *
                            static_cast<std::size_t>(problem.num_modes));
  for (const RoutedConn& rc : result.conns) {
    ASSERT_EQ(rc.edges.size() + 1, rc.nodes.size());
    for (std::size_t i = 0; i < rc.nodes.size(); ++i) {
      if (rrg.node(rc.nodes[i]).kind == arch::RrKind::Sink) continue;
      const std::int32_t edge =
          i == 0 ? -1 : static_cast<std::int32_t>(rc.edges[i - 1]);
      for (int m = 0; m < problem.num_modes; ++m) {
        if (!(rc.modes >> m & 1)) continue;
        Claim& c = claims[static_cast<std::size_t>(rc.nodes[i]) *
                              problem.num_modes + m];
        if (c.net == -1) {
          c.net = static_cast<std::int32_t>(rc.net);
          c.edge = edge;
        } else {
          EXPECT_EQ(c.net, static_cast<std::int32_t>(rc.net))
              << "two nets on node " << rc.nodes[i] << " in mode " << m;
          EXPECT_EQ(c.edge, edge) << "two drivers on node " << rc.nodes[i];
        }
      }
    }
  }

  // per_mode_states must agree exactly with the drivers reconstructed from
  // the (split) connections: in every mode, each node is driven by the edge
  // of the piece active there, and untouched nodes stay undriven.
  const auto states = result.per_mode_states(rrg, problem);
  ASSERT_EQ(states.size(), 3u);
  for (int m = 0; m < problem.num_modes; ++m) {
    std::vector<std::int32_t> expected(rrg.num_nodes(), -1);
    for (const RoutedConn& rc : result.conns) {
      if (!(rc.modes >> m & 1)) continue;
      for (std::size_t i = 0; i + 1 < rc.nodes.size(); ++i) {
        expected[rc.nodes[i + 1]] = static_cast<std::int32_t>(rc.edges[i]);
      }
    }
    for (std::uint32_t node = 0; node < rrg.num_nodes(); ++node) {
      ASSERT_EQ(states[static_cast<std::size_t>(m)].driver(node),
                expected[node])
          << "driver mismatch at node " << node << " in mode " << m;
    }
  }
}

TEST(MinChannelWidth, FindsMinimum) {
  arch::ArchSpec spec = spec_with(3, 1);
  // A crossing pattern needing a couple of tracks.
  auto make_problem = [](const arch::RoutingGraph& rrg) {
    RouteProblem problem;
    for (int i = 1; i <= 3; ++i) {
      RouteNet net;
      net.name = "n" + std::to_string(i);
      net.source_node = rrg.clb_source(i, 1);
      net.conns.push_back(RouteConn{rrg.clb_sink(4 - i, 3), 1});
      problem.nets.push_back(net);
    }
    return problem;
  };
  const int wmin = min_channel_width(spec, make_problem);
  EXPECT_GE(wmin, 1);
  EXPECT_LE(wmin, 8);
  // Verify minimality: wmin routes, wmin-1 does not (when wmin > 1).
  spec.channel_width = wmin;
  {
    const arch::RoutingGraph rrg(spec);
    EXPECT_TRUE(route(rrg, make_problem(rrg)).success);
  }
  if (wmin > 1) {
    spec.channel_width = wmin - 1;
    const arch::RoutingGraph rrg(spec);
    EXPECT_FALSE(route(rrg, make_problem(rrg)).success);
  }
}

/// True iff some SINK on the far side of a cut is reachable from a SOURCE on
/// the near side once every `cut` node is deleted. `side(node)` is -1 near,
/// +1 far and 0 on the cut line.
template <typename Cut, typename Side>
bool crosses_cut(const arch::RoutingGraph& rrg, const Cut& cut,
                 const Side& side) {
  std::vector<std::uint8_t> seen(rrg.num_nodes(), 0);
  std::deque<std::uint32_t> frontier;
  for (std::uint32_t n = 0; n < rrg.num_nodes(); ++n) {
    if (rrg.node(n).kind == arch::RrKind::Source && side(n) < 0) {
      seen[n] = 1;
      frontier.push_back(n);
    }
  }
  while (!frontier.empty()) {
    const std::uint32_t n = frontier.front();
    frontier.pop_front();
    if (rrg.node(n).kind == arch::RrKind::Sink && side(n) > 0) return true;
    const auto [begin, end] = rrg.out_edges(n);
    for (const auto* e = begin; e != end; ++e) {
      const std::uint32_t to = rrg.edge(*e).to;
      if (seen[to] == 0 && !cut(to)) {
        seen[to] = 1;
        frontier.push_back(to);
      }
    }
  }
  return false;
}

/// The premise of `core::channel_cut_bound`: every RRG path between blocks
/// strictly left and strictly right of logic column c uses a CHANX(c, ·)
/// node, and every path across logic row r a CHANY(·, r) node — in both
/// directions and for every switch box, K, pad capacity and width.
TEST(ChannelCut, WiresOfAColumnOrRowSeparateItsSides) {
  for (const auto box : {arch::SwitchBoxKind::Subset,
                         arch::SwitchBoxKind::Wilton}) {
    for (const int k : {4, 6}) {
      for (const int io : {1, 2}) {
        for (const int w : {1, 2, 3, 5}) {
          arch::ArchSpec spec;
          spec.nx = 4;
          spec.ny = 3;
          spec.k = k;
          spec.io_capacity = io;
          spec.channel_width = w;
          spec.switch_box = box;
          const arch::RoutingGraph rrg(spec);
          auto x_of = [&](std::uint32_t n) { return rrg.node(n).x; };
          auto y_of = [&](std::uint32_t n) { return rrg.node(n).y; };
          for (int c = 1; c <= spec.nx; ++c) {
            const auto cut = [&](std::uint32_t n) {
              return rrg.node(n).kind == arch::RrKind::ChanX && x_of(n) == c;
            };
            for (const int dir : {1, -1}) {
              const auto side = [&](std::uint32_t n) {
                return x_of(n) == c ? 0 : (x_of(n) < c ? -dir : dir);
              };
              EXPECT_FALSE(crosses_cut(rrg, cut, side))
                  << "column " << c << " dir " << dir << " k " << k << " io "
                  << io << " W " << w;
            }
          }
          for (int r = 1; r <= spec.ny; ++r) {
            const auto cut = [&](std::uint32_t n) {
              return rrg.node(n).kind == arch::RrKind::ChanY && y_of(n) == r;
            };
            for (const int dir : {1, -1}) {
              const auto side = [&](std::uint32_t n) {
                return y_of(n) == r ? 0 : (y_of(n) < r ? -dir : dir);
              };
              EXPECT_FALSE(crosses_cut(rrg, cut, side))
                  << "row " << r << " dir " << dir << " k " << k << " io "
                  << io << " W " << w;
            }
          }
          // Without the cut the sides do connect, so the check has teeth.
          const auto keep_all = [](std::uint32_t) { return false; };
          const auto left_right = [&](std::uint32_t n) {
            return x_of(n) == 2 ? 0 : (x_of(n) < 2 ? -1 : 1);
          };
          EXPECT_TRUE(crosses_cut(rrg, keep_all, left_right));
        }
      }
    }
  }
}

/// A predicate shaped like a real non-monotone search: width 12 fails with
/// 13 routing, and widths 6 and 11 route though the search never sees them.
bool non_monotone(int width) { return width >= 13 || width == 11 || width == 6; }

TEST(SearchMinWidth, VisitsEachWidthOnceInScanThenBisectOrder) {
  std::vector<int> calls;
  const int answer = search_min_width(
      [&](int width) {
        calls.push_back(width);
        return non_monotone(width);
      },
      128);
  EXPECT_EQ(answer, 13);
  EXPECT_EQ(calls, (std::vector<int>{4, 8, 16, 12, 14, 13}));
  EXPECT_EQ(searched_widths(13, 128), calls);
}

TEST(SearchMinWidth, BoundSettlesWidthsBelowItWithoutProbing) {
  const std::vector<int> unbounded = searched_widths(13, 128);
  for (int bound = 1; bound <= 13; ++bound) {
    perf::reset();
    std::vector<int> calls;
    const int answer = search_min_width(
        [&](int width) {
          EXPECT_GE(width, bound) << "probed below the bound";
          calls.push_back(width);
          return non_monotone(width);
        },
        128, bound);
    EXPECT_EQ(answer, 13) << "bound " << bound;
    // The probes at or above the bound are the unbounded search's, once
    // each; the rest count as bounded.
    std::vector<int> expected;
    std::size_t settled = 0;
    for (const int width : unbounded) {
      if (width >= bound) {
        expected.push_back(width);
      } else {
        ++settled;
      }
    }
    EXPECT_EQ(calls, expected) << "bound " << bound;
    EXPECT_EQ(perf::counter_value("route.width_probes"), expected.size());
    EXPECT_EQ(perf::counter_value("route.width_probes_bounded"), settled);
  }
}

TEST(SearchMinWidth, BoundAboveMaxWidthThrowsLikeAnUnroutableSearch) {
  int calls = 0;
  auto routable = [&](int) {
    ++calls;
    return true;
  };
  EXPECT_THROW((void)search_min_width(routable, 32, 33), PreconditionError);
  EXPECT_EQ(calls, 0);
  EXPECT_THROW((void)search_min_width([](int) { return false; }, 32),
               PreconditionError);
  // Every width the bisection tries below 32 is settled.
  EXPECT_EQ(search_min_width(routable, 32, 32), 32);
  EXPECT_EQ(calls, 1);
}

}  // namespace
}  // namespace mmflow::route
