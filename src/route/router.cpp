#include "route/router.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <memory>
#include <optional>

#include "common/log.h"
#include "common/parallel.h"
#include "common/perf.h"

namespace mmflow::route {

namespace {

using arch::RoutingGraph;
using arch::RrKind;

double base_cost(RrKind kind) {
  switch (kind) {
    case RrKind::Source: return 0.0;
    case RrKind::Opin: return 0.9;
    case RrKind::ChanX:
    case RrKind::ChanY: return 1.0;
    case RrKind::Ipin: return 0.9;
    case RrKind::Sink: return 0.0;
  }
  return 1.0;
}

constexpr double kInf = 1e30;

/// Connections per wave, per worker: large enough to amortize the wave
/// barrier, small enough to keep speculative conflicts (and hence wasted
/// re-routes) rare. Results are bit-identical for any value — it trades
/// wall time only.
constexpr std::size_t kWaveConnsPerWorker = 4;

/// Per-node hot state, packed so that one A* relaxation touches a single
/// cache line: the search-owned label (best_cost / prev_edge), the
/// router-owned occupancy summary (`occupied` has bit m set iff the node is
/// occupied in mode m) and the precomputed base-plus-history cost.
struct alignas(32) NodeHot {
  double best_cost = 0.0;   ///< A* label, reset via the touched list
  double base_hist = 0.0;   ///< base cost + accumulated congestion history
  std::int32_t prev_edge = -1;
  ModeMask occupied = 0;
  std::uint8_t is_sink = 0;
  std::uint8_t pad_[7] = {};
};
static_assert(sizeof(NodeHot) == 32);

/// Mutable router state: ownership per node per mode (SoA), congestion
/// history, and the per-node hot summaries.
///
/// The per-(node, mode) ownership records are split into parallel flat
/// arrays (net / edge / refs) indexed by node*num_modes+m; the packed
/// `NodeHot::occupied` word lets an A* edge relaxation decide the common
/// uncontended case (node free in every queried mode, nothing to share or
/// align with) with a single word test instead of three scans over
/// scattered records.
class RouterState {
 public:
  /// One (node, mode) ownership record, packed so the contended-score path
  /// reads it with a single 8-byte load.
  struct OwnerRec {
    std::int32_t net = -1;
    std::int32_t edge = -1;  ///< driving edge (-1 for the source node itself)
    bool operator==(const OwnerRec&) const = default;
  };

  RouterState(const RoutingGraph& rrg, int num_modes)
      : num_modes_(num_modes),
        hot_(rrg.num_nodes()),
        owner_(rrg.num_nodes() * static_cast<std::size_t>(num_modes)),
        refs_(rrg.num_nodes() * static_cast<std::size_t>(num_modes), 0),
        history_(rrg.num_nodes(), 0.0),
        base_(rrg.num_nodes(), 0.0) {
    for (std::uint32_t n = 0; n < rrg.num_nodes(); ++n) {
      base_[n] = base_cost(rrg.node(n).kind);
      hot_[n].best_cost = kInf;
      hot_[n].base_hist = base_[n];
      hot_[n].is_sink = rrg.node(n).kind == RrKind::Sink ? 1 : 0;
    }
  }

  /// Mutable hot-node array, shared with the search (which owns the
  /// best_cost / prev_edge fields between resets).
  [[nodiscard]] NodeHot* hot() { return hot_.data(); }
  /// Read-only hot-node array for the speculative searches.
  [[nodiscard]] const NodeHot* hot() const { return hot_.data(); }

  [[nodiscard]] ModeMask occupied(std::uint32_t node) const {
    return hot_[node].occupied;
  }
  /// Precomputed base cost per node (flat array; replaces the former
  /// per-relaxation switch on the node kind).
  [[nodiscard]] double base(std::uint32_t node) const { return base_[node]; }
  [[nodiscard]] double history(std::uint32_t node) const {
    return history_[node];
  }
  void add_history(std::uint32_t node, double amount) {
    history_[node] += amount;
    // Maintained on this cold path so the hot relaxation pays one load.
    hot_[node].base_hist = base_[node] + history_[node];
  }

  /// Fused occupancy query for one edge relaxation, replacing the former
  /// separate conflicts / fully_shared / aligned_with_other_modes scans:
  ///  * `conflicts`: modes in `mask` where the node is occupied by a
  ///    different (net, edge);
  ///  * `fully_shared`: node already owned by (net, edge) in *every* mode of
  ///    `mask` (free re-use of the net's existing tree);
  ///  * `aligned`: all *other* occupied modes drive the node through `edge`
  ///    (and at least one exists), so its mux select bits stay static.
  struct Score {
    int conflicts = 0;
    bool fully_shared = false;
    bool aligned = false;
  };

  /// `cleared` removes occupancy bits from the query without mutating state
  /// — the speculative searches pass the modes their own rip-up would free
  /// (see `would_release`); the sequential path passes 0, which compiles to
  /// the original query.
  [[nodiscard]] Score score(std::uint32_t node, std::int32_t edge,
                            std::int32_t net, ModeMask mask,
                            ModeMask cleared = 0) const {
    Score s;
    const ModeMask occ = hot_[node].occupied & ~cleared;
    const std::size_t base = static_cast<std::size_t>(node) * num_modes_;
    const OwnerRec want{net, edge};

    const ModeMask mine = occ & mask;
    bool shared_all = mine == mask;
    for (ModeMask bits = mine; bits != 0; bits &= bits - 1) {
      const std::size_t idx = base + static_cast<std::size_t>(std::countr_zero(bits));
      if (!(owner_[idx] == want)) {
        ++s.conflicts;
        shared_all = false;
      }
    }
    s.fully_shared = shared_all;
    if (!shared_all && s.conflicts == 0) {
      const ModeMask others = occ & ~mask;
      if (others != 0) {
        s.aligned = true;
        for (ModeMask bits = others; bits != 0; bits &= bits - 1) {
          const std::size_t idx =
              base + static_cast<std::size_t>(std::countr_zero(bits));
          if (owner_[idx].edge != edge) {
            s.aligned = false;
            break;
          }
        }
      }
    }
    return s;
  }

  /// Occupancy bits of `mask` that a release on `node` would actually clear
  /// (single-claimant modes). This is the exact observable effect of a
  /// connection ripping up its own path: multi-claimant modes keep their
  /// bit and their owner record, so the speculative view = live occupancy
  /// minus this mask.
  [[nodiscard]] ModeMask would_release(std::uint32_t node,
                                       ModeMask mask) const {
    const std::size_t base = static_cast<std::size_t>(node) * num_modes_;
    ModeMask cleared = 0;
    for (ModeMask bits = mask; bits != 0; bits &= bits - 1) {
      const int m = std::countr_zero(bits);
      if (refs_[base + static_cast<std::size_t>(m)] == 1) {
        cleared |= ModeMask{1} << m;
      }
    }
    return cleared;
  }

  void occupy(std::uint32_t node, std::int32_t edge, std::int32_t net,
              ModeMask mask) {
    const std::size_t base = static_cast<std::size_t>(node) * num_modes_;
    for (ModeMask bits = mask; bits != 0; bits &= bits - 1) {
      const int m = std::countr_zero(bits);
      const std::size_t idx = base + static_cast<std::size_t>(m);
      if (refs_[idx] == 0) {
        owner_[idx] = OwnerRec{net, edge};
        refs_[idx] = 1;
        hot_[node].occupied |= ModeMask{1} << m;
      } else {
        // Conflicting occupancy is allowed transiently during negotiation;
        // ownership tracks the most recent claim, refs the claim count.
        owner_[idx] = OwnerRec{net, edge};
        ++refs_[idx];
      }
    }
  }

  void release(std::uint32_t node, ModeMask mask) {
    const std::size_t base = static_cast<std::size_t>(node) * num_modes_;
    for (ModeMask bits = mask; bits != 0; bits &= bits - 1) {
      const int m = std::countr_zero(bits);
      const std::size_t idx = base + static_cast<std::size_t>(m);
      MMFLOW_CHECK(refs_[idx] > 0);
      if (--refs_[idx] == 0) {
        owner_[idx] = OwnerRec{};
        hot_[node].occupied &= ~(ModeMask{1} << m);
      }
    }
  }

  [[nodiscard]] int num_modes() const { return num_modes_; }

 private:
  int num_modes_;
  std::vector<NodeHot> hot_;
  std::vector<OwnerRec> owner_;
  std::vector<std::uint16_t> refs_;
  std::vector<double> history_;
  std::vector<double> base_;
};

/// Incremental legality audit. Ownership bookkeeping cannot by itself
/// detect all conflicts after rip-up/re-route churn (the owner record keeps
/// only the latest claimant), so legality is verified against the actual
/// connection paths — but instead of rebuilding an O(nodes x modes) claims
/// table from scratch every iteration, the index maintains, per node, the
/// list of (connection, entering edge) claims currently routed through it,
/// and re-validates only the nodes whose occupancy changed since the last
/// audit. A node's conflict status is order-independent (conflicted iff two
/// distinct (net, driver) claims share a mode), so the incremental result
/// is identical to the full rebuild.
class AuditIndex {
 public:
  explicit AuditIndex(const RoutingGraph& rrg)
      : rrg_(rrg),
        claims_(rrg.num_nodes()),
        dirty_flag_(rrg.num_nodes(), 0),
        bad_pos_(rrg.num_nodes(), -1) {}

  /// Registers a freshly routed path (call after RouterState::occupy).
  void add_path(std::uint32_t ci, const RoutedConn& rc) {
    for (std::size_t i = 0; i < rc.nodes.size(); ++i) {
      const std::uint32_t node = rc.nodes[i];
      // SINK nodes are logical endpoints with capacity K (the K logically
      // equivalent LUT input pins); exclusivity is enforced on the IPINs.
      if (rrg_.node(node).kind == RrKind::Sink) continue;
      const std::int32_t edge =
          i == 0 ? -1 : static_cast<std::int32_t>(rc.edges[i - 1]);
      claims_[node].push_back(Entry{ci, edge});
      mark_dirty(node);
    }
  }

  /// Unregisters a path about to be ripped up (call before clearing it).
  void remove_path(std::uint32_t ci, const RoutedConn& rc) {
    for (const std::uint32_t node : rc.nodes) {
      if (rrg_.node(node).kind == RrKind::Sink) continue;
      auto& list = claims_[node];
      for (std::size_t i = 0; i < list.size(); ++i) {
        if (list[i].conn == ci) {
          list[i] = list.back();
          list.pop_back();
          break;
        }
      }
      mark_dirty(node);
    }
  }

  /// Re-validates dirty nodes, bumps congestion history on every currently
  /// conflicted node, flags connections through conflicted nodes; returns
  /// the conflicted node count. Equivalent to the former full-table audit.
  int run(const std::vector<RoutedConn>& conns, RouterState* state,
          double hist_fac, std::vector<std::uint8_t>* conn_in_conflict) {
    MMFLOW_PERF_ADD("route.audits", 1);
    MMFLOW_PERF_ADD("route.audit_dirty_nodes", dirty_.size());
    for (const std::uint32_t node : dirty_) {
      dirty_flag_[node] = 0;
      set_bad(node, recompute(node, conns));
    }
    dirty_.clear();

    for (const std::uint32_t node : bad_list_) {
      state->add_history(node, hist_fac);
    }
    if (conn_in_conflict != nullptr) {
      conn_in_conflict->assign(conns.size(), 0);
      for (const std::uint32_t node : bad_list_) {
        for (const Entry& e : claims_[node]) {
          (*conn_in_conflict)[e.conn] = 1;
        }
      }
    }
    return static_cast<int>(bad_list_.size());
  }

 private:
  struct Entry {
    std::uint32_t conn = 0;
    std::int32_t edge = -1;  ///< driving edge (-1 for the source node itself)
  };

  void mark_dirty(std::uint32_t node) {
    if (dirty_flag_[node] == 0) {
      dirty_flag_[node] = 1;
      dirty_.push_back(node);
    }
  }

  /// True iff two claims with distinct (net, edge) share a mode on `node`.
  [[nodiscard]] bool recompute(std::uint32_t node,
                               const std::vector<RoutedConn>& conns) const {
    std::int32_t claim_net[32];
    std::int32_t claim_edge[32];
    ModeMask seen = 0;
    for (const Entry& e : claims_[node]) {
      const RoutedConn& rc = conns[e.conn];
      const auto net = static_cast<std::int32_t>(rc.net);
      for (ModeMask bits = rc.modes; bits != 0; bits &= bits - 1) {
        const int m = std::countr_zero(bits);
        if ((seen >> m & 1) == 0) {
          seen |= ModeMask{1} << m;
          claim_net[m] = net;
          claim_edge[m] = e.edge;
        } else if (claim_net[m] != net || claim_edge[m] != e.edge) {
          return true;
        }
      }
    }
    return false;
  }

  void set_bad(std::uint32_t node, bool bad) {
    if (bad && bad_pos_[node] < 0) {
      bad_pos_[node] = static_cast<std::int32_t>(bad_list_.size());
      bad_list_.push_back(node);
    } else if (!bad && bad_pos_[node] >= 0) {
      const std::int32_t pos = bad_pos_[node];
      const std::uint32_t moved = bad_list_.back();
      bad_list_[static_cast<std::size_t>(pos)] = moved;
      bad_pos_[moved] = pos;
      bad_list_.pop_back();
      bad_pos_[node] = -1;
    }
  }

  const RoutingGraph& rrg_;
  std::vector<std::vector<Entry>> claims_;  ///< per node: live path claims
  std::vector<std::uint8_t> dirty_flag_;
  std::vector<std::uint32_t> dirty_;
  std::vector<std::int32_t> bad_pos_;   ///< position in bad_list_ or -1
  std::vector<std::uint32_t> bad_list_; ///< currently conflicted nodes
};

/// Flat, cache-friendly mirrors of the RRG fields the A* inner loop touches
/// — a packed (target, edge-id) adjacency array in CSR order so one
/// relaxation is one sequential 8-byte load instead of two dependent
/// indirections. Immutable once built; one instance is shared read-only by
/// the sequential search and every speculative worker.
struct FlatRrg {
  struct Adj {
    std::uint32_t to = 0;
    std::uint32_t edge = 0;
  };

  std::vector<std::int16_t> x, y;
  std::vector<std::uint32_t> adj_offset;
  std::vector<Adj> adj;
  std::vector<std::uint32_t> edge_from;

  explicit FlatRrg(const RoutingGraph& rrg)
      : x(rrg.num_nodes(), 0),
        y(rrg.num_nodes(), 0),
        adj_offset(rrg.num_nodes() + 1, 0),
        edge_from(rrg.num_edges(), 0) {
    for (std::uint32_t n = 0; n < rrg.num_nodes(); ++n) {
      const auto& node = rrg.node(n);
      x[n] = node.x;
      y[n] = node.y;
    }
    adj.reserve(rrg.num_edges());
    for (std::uint32_t n = 0; n < rrg.num_nodes(); ++n) {
      adj_offset[n] = static_cast<std::uint32_t>(adj.size());
      auto [begin, end] = rrg.out_edges(n);
      for (const auto* it = begin; it != end; ++it) {
        adj.push_back(Adj{rrg.edge(*it).to, *it});
      }
    }
    adj_offset[rrg.num_nodes()] = static_cast<std::uint32_t>(adj.size());
    for (std::uint32_t e = 0; e < rrg.num_edges(); ++e) {
      edge_from[e] = rrg.edge(e).from;
    }
  }
};

/// A* label storage for a speculative search: the same best_cost/prev_edge
/// pair the sequential search keeps inside NodeHot, but private to one
/// worker so concurrent speculations never touch shared memory.
struct SpecLabel {
  double best_cost = kInf;
  std::int32_t prev_edge = -1;
};

/// View of the router state for the sequential search: labels live in the
/// shared NodeHot array (one cache line per relaxation), occupancy is read
/// live, nothing is recorded. Inlines to exactly the pre-parallel hot loop.
struct SharedView {
  NodeHot* hot;
  const RouterState* state;

  [[nodiscard]] double best_cost(std::uint32_t n) const {
    return hot[n].best_cost;
  }
  void set_label(std::uint32_t n, double g, std::int32_t edge) {
    hot[n].best_cost = g;
    hot[n].prev_edge = edge;
  }
  void reset_label(std::uint32_t n) {
    hot[n].best_cost = kInf;
    hot[n].prev_edge = -1;
  }
  [[nodiscard]] std::int32_t prev_edge(std::uint32_t n) const {
    return hot[n].prev_edge;
  }
  [[nodiscard]] bool is_sink(std::uint32_t n) const {
    return hot[n].is_sink != 0;
  }
  [[nodiscard]] ModeMask occupied(std::uint32_t n) const {
    return hot[n].occupied;
  }
  [[nodiscard]] double base_hist(std::uint32_t n) const {
    return hot[n].base_hist;
  }
  [[nodiscard]] double base(std::uint32_t n) const { return state->base(n); }
  [[nodiscard]] RouterState::Score score(std::uint32_t n, std::int32_t edge,
                                         std::int32_t net,
                                         ModeMask mask) const {
    return state->score(n, edge, net, mask);
  }
  void note_read(std::uint32_t) {}
};

/// View for a speculative search: labels live in worker-private SpecLabel
/// storage, the connection's own rip-up is applied as a read-only overlay
/// (`would_release` masks, stamped per node), and every node whose
/// occupancy the search reads is recorded — the read set the commit phase
/// validates against. Reads the live state otherwise; the wave protocol
/// guarantees nobody writes while speculations run.
struct SpecView {
  const NodeHot* hot;
  const RouterState* state;
  SpecLabel* labels;
  const ModeMask* overlay_clear;
  const std::uint32_t* overlay_stamp;
  std::uint32_t overlay_epoch;
  std::uint32_t* read_stamp;
  std::uint32_t read_epoch;
  std::vector<std::uint32_t>* reads;

  [[nodiscard]] ModeMask cleared(std::uint32_t n) const {
    return overlay_stamp[n] == overlay_epoch ? overlay_clear[n] : 0;
  }

  [[nodiscard]] double best_cost(std::uint32_t n) const {
    return labels[n].best_cost;
  }
  void set_label(std::uint32_t n, double g, std::int32_t edge) {
    labels[n].best_cost = g;
    labels[n].prev_edge = edge;
  }
  void reset_label(std::uint32_t n) { labels[n] = SpecLabel{}; }
  [[nodiscard]] std::int32_t prev_edge(std::uint32_t n) const {
    return labels[n].prev_edge;
  }
  [[nodiscard]] bool is_sink(std::uint32_t n) const {
    return hot[n].is_sink != 0;
  }
  [[nodiscard]] ModeMask occupied(std::uint32_t n) const {
    return hot[n].occupied & ~cleared(n);
  }
  [[nodiscard]] double base_hist(std::uint32_t n) const {
    return hot[n].base_hist;
  }
  [[nodiscard]] double base(std::uint32_t n) const { return state->base(n); }
  [[nodiscard]] RouterState::Score score(std::uint32_t n, std::int32_t edge,
                                         std::int32_t net,
                                         ModeMask mask) const {
    return state->score(n, edge, net, mask, cleared(n));
  }
  void note_read(std::uint32_t n) {
    if (read_stamp[n] != read_epoch) {
      read_stamp[n] = read_epoch;
      reads->push_back(n);
    }
  }
};

/// A* search for one connection over the shared FlatRrg mirrors, with a
/// reusable open heap that is cleared, not reallocated, per connection. The
/// state view (label storage, occupancy reads, read recording) is a
/// template parameter so the sequential and speculative searches share one
/// relaxation loop — and therefore bit-identical arithmetic.
class Search {
 public:
  explicit Search(const FlatRrg& flat) : flat_(&flat) {}

  /// Sequential search: returns the path (nodes + entering edges) or false
  /// on failure. Scribbles A* labels into `state`'s hot-node array (reset
  /// on entry via the touched list).
  bool run(RouterState& state, std::uint32_t source, std::uint32_t sink,
           std::int32_t net, ModeMask mask, double pres_fac,
           double share_discount, double align_discount, double astar_fac,
           RoutedConn* out) {
    SharedView view{state.hot(), &state};
    return run_impl(view, source, sink, net, mask, pres_fac, share_discount,
                    align_discount, astar_fac, out);
  }

  /// Speculative search with a fully populated SpecView (labels must point
  /// into this worker's storage). Read-only on `RouterState`.
  bool run_speculative(SpecView& view, std::uint32_t source,
                       std::uint32_t sink, std::int32_t net, ModeMask mask,
                       double pres_fac, double share_discount,
                       double align_discount, double astar_fac,
                       RoutedConn* out) {
    return run_impl(view, source, sink, net, mask, pres_fac, share_discount,
                    align_discount, astar_fac, out);
  }

  /// Flushes accumulated per-search tallies into the perf registry. Call
  /// from one thread at a time (the route driver flushes after joining).
  void flush_perf() {
    MMFLOW_PERF_ADD("route.heap_pushes", pushes_);
    MMFLOW_PERF_ADD("route.heap_pops", pops_);
    MMFLOW_PERF_ADD("route.nodes_expanded", expanded_);
    pushes_ = 0;
    pops_ = 0;
    expanded_ = 0;
  }

 private:
  template <class View>
  bool run_impl(View& view, std::uint32_t source, std::uint32_t sink,
                std::int32_t net, ModeMask mask, double pres_fac,
                double share_discount, double align_discount,
                double astar_fac, RoutedConn* out) {
    // Reset touched entries from the previous search.
    for (const std::uint32_t n : touched_) view.reset_label(n);
    touched_.clear();
    open_.clear();

    const FlatRrg& flat = *flat_;
    const int sink_x = flat.x[sink];
    const int sink_y = flat.y[sink];
    const auto distance = [&](std::uint32_t n) {
      return std::abs(static_cast<int>(flat.x[n]) - sink_x) +
             std::abs(static_cast<int>(flat.y[n]) - sink_y);
    };

    // pres_fac is constant for the whole search and a connection conflicts
    // in at most popcount(mask) modes: precompute the congestion factors so
    // the contended relaxation pays one table load instead of a mul+add
    // (identical arithmetic: entry c holds exactly 1.0 + pres_fac * c).
    double conflict_factor[33];
    const int max_conflicts = std::popcount(mask);
    for (int c = 0; c <= max_conflicts; ++c) {
      conflict_factor[c] = 1.0 + pres_fac * c;
    }

    view.set_label(source, 0.0, -1);
    touched_.push_back(source);
    push(QEntry{astar_fac * distance(source), 0.0, source});

    while (!open_.empty()) {
      const QEntry top = pop();
      if (top.node == sink) break;
      if (top.g > view.best_cost(top.node)) continue;  // stale entry
      ++expanded_;

      const FlatRrg::Adj* it = flat.adj.data() + flat.adj_offset[top.node];
      const FlatRrg::Adj* end = flat.adj.data() + flat.adj_offset[top.node + 1];
      for (; it != end; ++it) {
        const std::uint32_t to = it->to;
        // Sinks other than the target are dead ends.
        if (view.is_sink(to) && to != sink) continue;

        double node_cost;
        if (to == sink) {
          node_cost = 0.0;
        } else {
          // Everything below depends on the node's occupancy state, so the
          // speculative view records `to` into the validation read set.
          view.note_read(to);
          if (view.occupied(to) == 0) {
            // Uncontended node, nothing to share or align with: the former
            // (base + history) * (1 + pres_fac * 0) collapses to one load
            // (multiplying by exactly 1.0 is an identity).
            node_cost = view.base_hist(to);
          } else {
            const auto edge_id = static_cast<std::int32_t>(it->edge);
            const RouterState::Score s = view.score(to, edge_id, net, mask);
            if (s.fully_shared) {
              node_cost = view.base(to) * share_discount;
            } else {
              node_cost = view.base_hist(to) * conflict_factor[s.conflicts];
              if (s.aligned) node_cost *= align_discount;
            }
          }
        }

        const double g = top.g + node_cost;
        if (g + 1e-12 < view.best_cost(to)) {
          if (view.best_cost(to) == kInf) touched_.push_back(to);
          view.set_label(to, g, static_cast<std::int32_t>(it->edge));
          push(QEntry{g + astar_fac * distance(to), g, to});
        }
      }
    }

    if (view.best_cost(sink) >= kInf) return false;

    // Reconstruct.
    out->nodes.clear();
    out->edges.clear();
    std::uint32_t node = sink;
    while (node != source) {
      const std::int32_t e = view.prev_edge(node);
      MMFLOW_CHECK(e >= 0);
      out->nodes.push_back(node);
      out->edges.push_back(static_cast<std::uint32_t>(e));
      node = flat.edge_from[static_cast<std::uint32_t>(e)];
    }
    out->nodes.push_back(source);
    std::reverse(out->nodes.begin(), out->nodes.end());
    std::reverse(out->edges.begin(), out->edges.end());
    return true;
  }

  struct QEntry {
    double f = 0.0;
    double g = 0.0;
    std::uint32_t node = 0;
    bool operator<(const QEntry& other) const { return f > other.f; }
  };

  // std::push_heap / std::pop_heap over a reusable vector: identical
  // ordering (including tie-breaks) to the std::priority_queue they
  // replace, without the per-connection container construction.
  void push(QEntry e) {
    open_.push_back(e);
    std::push_heap(open_.begin(), open_.end());
    ++pushes_;
  }
  QEntry pop() {
    std::pop_heap(open_.begin(), open_.end());
    const QEntry top = open_.back();
    open_.pop_back();
    ++pops_;
    return top;
  }

  const FlatRrg* flat_;
  std::vector<std::uint32_t> touched_;
  std::vector<QEntry> open_;

  std::uint64_t pushes_ = 0;
  std::uint64_t pops_ = 0;
  std::uint64_t expanded_ = 0;
};

/// One worker's private speculation state: a Search (own heap/touched
/// list), label storage, the own-rip-up overlay and the read-set stamps.
struct SpecWorker {
  Search search;
  std::vector<SpecLabel> labels;
  std::vector<ModeMask> overlay_clear;
  std::vector<std::uint32_t> overlay_stamp;
  std::uint32_t overlay_epoch = 0;
  std::vector<std::uint32_t> read_stamp;
  std::uint32_t read_epoch = 0;

  SpecWorker(const RoutingGraph& rrg, const FlatRrg& flat)
      : search(flat),
        labels(rrg.num_nodes()),
        overlay_clear(rrg.num_nodes(), 0),
        overlay_stamp(rrg.num_nodes(), 0),
        read_stamp(rrg.num_nodes(), 0) {}
};

/// Output slot of one speculative search, reused across waves.
struct SpecSlot {
  RoutedConn path;  ///< nodes/edges only; net/conn/modes stay on the live rc
  std::vector<std::uint32_t> reads;
  bool found = false;
};

}  // namespace

RouteResult route(const RoutingGraph& rrg, const RouteProblem& problem,
                  const RouterOptions& options) {
  MMFLOW_REQUIRE(problem.num_modes >= 1 && problem.num_modes <= 32);
  // The bit-scan state updates index ownership rows by mask bit, so a stray
  // bit >= num_modes would read out of bounds (the former per-mode loops
  // silently ignored such bits); reject malformed masks up front.
  for (const RouteNet& net : problem.nets) {
    for (const RouteConn& conn : net.conns) {
      MMFLOW_REQUIRE_MSG(
          problem.num_modes == 32 || (conn.modes >> problem.num_modes) == 0,
          "connection mode mask " << conn.modes << " exceeds num_modes "
                                  << problem.num_modes);
    }
  }
  MMFLOW_PERF_SCOPE("route.total");
  MMFLOW_PERF_ADD("route.calls", 1);

  RouterState state(rrg, problem.num_modes);
  AuditIndex audit(rrg);
  const FlatRrg flat(rrg);
  Search search(flat);

  // Parallel-wave machinery, spawned lazily at the first wave so a jobs > 1
  // call whose iterations never accumulate two re-routable connections (tiny
  // problems, converged rip-up lists) pays nothing. Everything here trades
  // wall time only: results are bit-identical to the sequential path by the
  // wave determinism contract (docs/ROUTING.md).
  const int jobs = options.jobs == 1 ? 1 : parallel::resolve_jobs(options.jobs);
  std::optional<parallel::WorkerPool> pool;
  std::vector<std::unique_ptr<SpecWorker>> spec_workers;
  std::vector<SpecSlot> slots;
  std::vector<std::uint32_t> dirty_stamp;  ///< per node, == wave_epoch if
                                           ///< occupancy changed this wave
  std::uint32_t wave_epoch = 0;
  const auto ensure_parallel = [&] {
    if (pool.has_value()) return;
    pool.emplace(jobs);
    spec_workers.reserve(static_cast<std::size_t>(jobs));
    for (int w = 0; w < jobs; ++w) {
      spec_workers.push_back(std::make_unique<SpecWorker>(rrg, flat));
    }
    slots.resize(static_cast<std::size_t>(jobs) * kWaveConnsPerWorker);
    dirty_stamp.assign(rrg.num_nodes(), 0);
  };

  RouteResult result;
  for (std::uint32_t n = 0; n < problem.nets.size(); ++n) {
    for (std::uint32_t c = 0; c < problem.nets[n].conns.size(); ++c) {
      RoutedConn rc;
      rc.net = n;
      rc.conn = c;
      rc.modes = problem.nets[n].conns[c].modes;
      result.conns.push_back(std::move(rc));
    }
  }

  // Route fanout-heavy nets first (stable order, recomputed after splits).
  std::vector<std::size_t> order;
  auto rebuild_order = [&] {
    order.resize(result.conns.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return problem.nets[result.conns[a].net].conns.size() >
                              problem.nets[result.conns[b].net].conns.size();
                     });
  };
  rebuild_order();

  double pres_fac = options.first_iter_pres_fac;
  std::vector<std::uint8_t> conn_in_conflict(result.conns.size(), 1);

  // Rips up `ci`'s current path (no-op if it has none). In the parallel
  // commit phase `mark_dirty` records the occupancy change for the wave's
  // validation; sequentially it is null.
  const auto rip_up = [&](std::size_t ci, const auto& mark_dirty) {
    RoutedConn& rc = result.conns[ci];
    if (rc.nodes.empty()) return;
    audit.remove_path(static_cast<std::uint32_t>(ci), rc);
    for (const std::uint32_t node : rc.nodes) {
      state.release(node, rc.modes);
      mark_dirty(node);
    }
    rc.nodes.clear();
    rc.edges.clear();
  };

  // Commits `ci`'s freshly found path: occupancy, audit registration,
  // counters. Shared verbatim by the sequential path and the wave commit.
  const auto commit_path = [&](std::size_t ci, const auto& mark_dirty) {
    RoutedConn& rc = result.conns[ci];
    for (std::size_t i = 0; i < rc.nodes.size(); ++i) {
      const std::int32_t edge =
          i == 0 ? -1 : static_cast<std::int32_t>(rc.edges[i - 1]);
      state.occupy(rc.nodes[i], edge, static_cast<std::int32_t>(rc.net),
                   rc.modes);
      mark_dirty(rc.nodes[i]);
    }
    audit.add_path(static_cast<std::uint32_t>(ci), rc);
    MMFLOW_PERF_ADD("route.conns_routed", 1);
  };

  const auto no_dirty = [](std::uint32_t) {};

  // Routes `ci` against the live state — the sequential semantics both the
  // jobs=1 path and the wave conflict re-route use.
  const auto route_sequential = [&](std::size_t ci, const auto& mark_dirty) {
    RoutedConn& rc = result.conns[ci];
    const auto& net = problem.nets[rc.net];
    const auto& conn = net.conns[rc.conn];
    rip_up(ci, mark_dirty);
    const bool found = search.run(
        state, net.source_node, conn.sink_node,
        static_cast<std::int32_t>(rc.net), rc.modes, pres_fac,
        options.share_discount, options.align_discount, options.astar_fac,
        &rc);
    MMFLOW_CHECK_MSG(found, "disconnected routing graph: no path for net "
                                << net.name);
    commit_path(ci, mark_dirty);
  };

  // One speculative task: search against the wave-start state with the
  // connection's own rip-up applied as an overlay, recording the read set.
  const auto speculate = [&](std::size_t ci, SpecWorker& w, SpecSlot& slot) {
    const RoutedConn& rc = result.conns[ci];
    const auto& net = problem.nets[rc.net];
    const auto& conn = net.conns[rc.conn];

    ++w.overlay_epoch;
    for (const std::uint32_t node : rc.nodes) {
      const ModeMask cleared = state.would_release(node, rc.modes);
      if (cleared != 0) {
        w.overlay_clear[node] = cleared;
        w.overlay_stamp[node] = w.overlay_epoch;
      }
    }
    ++w.read_epoch;
    slot.reads.clear();

    SpecView view{state.hot(),          &state,
                  w.labels.data(),      w.overlay_clear.data(),
                  w.overlay_stamp.data(), w.overlay_epoch,
                  w.read_stamp.data(),  w.read_epoch,
                  &slot.reads};
    slot.found = w.search.run_speculative(
        view, net.source_node, conn.sink_node,
        static_cast<std::int32_t>(rc.net), rc.modes, pres_fac,
        options.share_discount, options.align_discount, options.astar_fac,
        &slot.path);
  };

  std::vector<std::size_t> to_route;
  for (int iter = 1; iter <= options.max_iterations; ++iter) {
    poll_cancel(options.cancel);
    // Feasibility escape hatch: a merged connection constrains all its modes
    // to one physical path; with >= 3 modes that joint constraint can be
    // unsatisfiable. Split still-conflicted merged connections into
    // per-mode connections (same net, so trunk sharing remains possible).
    if (iter > options.split_conflicted_after) {
      bool split_any = false;
      const std::size_t original = result.conns.size();
      for (std::size_t ci = 0; ci < original; ++ci) {
        RoutedConn& rc = result.conns[ci];
        if (!conn_in_conflict[ci] || std::popcount(rc.modes) <= 1) continue;
        // Rip up and split.
        if (!rc.nodes.empty()) {
          audit.remove_path(static_cast<std::uint32_t>(ci), rc);
          for (const std::uint32_t node : rc.nodes) {
            state.release(node, rc.modes);
          }
          rc.nodes.clear();
          rc.edges.clear();
        }
        ModeMask remaining = rc.modes & (rc.modes - 1);  // all but lowest bit
        rc.modes &= ~remaining;                          // keep lowest bit
        // Copy before the push_backs below: they may reallocate result.conns
        // and invalidate `rc`.
        const std::uint32_t split_net = rc.net;
        const std::uint32_t split_conn = rc.conn;
        while (remaining != 0) {
          const ModeMask low = remaining & (0u - remaining);
          remaining &= ~low;
          RoutedConn extra;
          extra.net = split_net;
          extra.conn = split_conn;
          extra.modes = low;
          result.conns.push_back(std::move(extra));
          conn_in_conflict.push_back(1);
        }
        split_any = true;
        MMFLOW_PERF_ADD("route.splits", 1);
      }
      if (split_any) {
        MMFLOW_DEBUG("route iter " << iter << ": split merged connections ("
                                   << result.conns.size() << " total)");
        rebuild_order();
      }
    }

    // The canonical routing order of this iteration. After the first
    // iteration, only connections through conflicted nodes are re-routed
    // (connection-router behaviour: untouched connections keep their path
    // and their static bits).
    to_route.clear();
    for (const std::size_t ci : order) {
      if (iter > 1 && !conn_in_conflict[ci]) continue;
      to_route.push_back(ci);
    }

    if (jobs <= 1 || to_route.size() < 2) {
      for (const std::size_t ci : to_route) route_sequential(ci, no_dirty);
    } else {
      // Parallel waves: speculate a slice of the canonical order on the
      // worker pool against the frozen wave-start state, then commit in
      // canonical order, re-routing every connection whose speculation read
      // a node an earlier-ordered commit changed. See docs/ROUTING.md.
      ensure_parallel();
      const std::size_t wave_size = slots.size();
      const auto mark_dirty = [&](std::uint32_t node) {
        dirty_stamp[node] = wave_epoch;
      };
      for (std::size_t start = 0; start < to_route.size();
           start += wave_size) {
        const std::size_t count =
            std::min(wave_size, to_route.size() - start);
        {
          MMFLOW_PERF_SCOPE("route.parallel_spec");
          pool->run(count, [&](std::size_t i, int w) {
            const auto t0 = std::chrono::steady_clock::now();
            speculate(to_route[start + i], *spec_workers[w], slots[i]);
            MMFLOW_PERF_ADD(
                "route.parallel_busy_ns",
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count());
          });
        }
        {
          MMFLOW_PERF_SCOPE("route.parallel_commit");
          ++wave_epoch;
          for (std::size_t i = 0; i < count; ++i) {
            const std::size_t ci = to_route[start + i];
            SpecSlot& slot = slots[i];
            // Valid iff the speculation succeeded and read no node whose
            // occupancy an earlier-ordered commit of this wave changed —
            // then its search provably equals the sequential one.
            bool valid = slot.found;
            if (valid) {
              for (const std::uint32_t n : slot.reads) {
                if (dirty_stamp[n] == wave_epoch) {
                  valid = false;
                  break;
                }
              }
            }
            if (valid) {
              RoutedConn& rc = result.conns[ci];
              rip_up(ci, mark_dirty);
              std::swap(rc.nodes, slot.path.nodes);
              std::swap(rc.edges, slot.path.edges);
              commit_path(ci, mark_dirty);
              MMFLOW_PERF_ADD("route.parallel_spec_commits", 1);
            } else {
              route_sequential(ci, mark_dirty);
              MMFLOW_PERF_ADD("route.parallel_reroutes", 1);
              // A discarded *successful* speculation is a read-set conflict;
              // a failed one (slot.found == false, possible only on a
              // disconnected overlay view) is a re-route but not a conflict.
              if (slot.found) MMFLOW_PERF_ADD("route.parallel_conflicts", 1);
            }
          }
        }
        MMFLOW_PERF_ADD("route.parallel_waves", 1);
        MMFLOW_PERF_ADD("route.parallel_wave_conns", count);
      }
    }

    const int bad = audit.run(result.conns, &state, options.hist_fac,
                              &conn_in_conflict);
    result.iterations = iter;
    MMFLOW_PERF_ADD("route.iterations", 1);
    if (bad == 0) {
      result.success = true;
      break;
    }
    MMFLOW_DEBUG("route iter " << iter << ": " << bad << " conflicted nodes");
    pres_fac = std::min(pres_fac * options.pres_fac_mult, options.max_pres_fac);
  }
  search.flush_perf();
  for (const auto& w : spec_workers) w->search.flush_perf();
  return result;
}

std::vector<bitstream::RoutingState> RouteResult::per_mode_states(
    const RoutingGraph& rrg, const RouteProblem& problem) const {
  std::vector<bitstream::RoutingState> states(
      static_cast<std::size_t>(problem.num_modes),
      bitstream::RoutingState(rrg.num_nodes()));
  for (const RoutedConn& rc : conns) {
    for (std::size_t i = 0; i + 1 < rc.nodes.size(); ++i) {
      const std::uint32_t to = rc.nodes[i + 1];
      const std::uint32_t edge = rc.edges[i];
      for (int m = 0; m < problem.num_modes; ++m) {
        if (rc.modes >> m & 1) {
          states[static_cast<std::size_t>(m)].set_driver(to, edge);
        }
      }
    }
  }
  return states;
}

std::size_t RouteResult::wirelength_of_mode(const RoutingGraph& rrg,
                                            const RouteProblem& problem,
                                            int mode) const {
  (void)problem;  // masks live on the RoutedConns (splits may refine them)
  std::vector<std::uint8_t> visited(rrg.num_nodes(), 0);
  std::size_t wires = 0;
  for (const RoutedConn& rc : conns) {
    if (!(rc.modes >> mode & 1)) continue;
    for (const std::uint32_t node : rc.nodes) {
      if (rrg.is_wire(node) && visited[node] == 0) {
        visited[node] = 1;
        ++wires;
      }
    }
  }
  return wires;
}

std::size_t RouteResult::total_wirelength(const RoutingGraph& rrg) const {
  std::vector<std::uint8_t> visited(rrg.num_nodes(), 0);
  std::size_t wires = 0;
  for (const RoutedConn& rc : conns) {
    for (const std::uint32_t node : rc.nodes) {
      if (rrg.is_wire(node) && visited[node] == 0) {
        visited[node] = 1;
        ++wires;
      }
    }
  }
  return wires;
}

namespace {

/// The width search's probe order over `routable`: scan upward from width 4
/// by doubling, then bisect the bracketed range. Visits no width twice: the
/// scan's widths all lie at or outside the bracket, and each bisection step
/// probes strictly inside it.
template <typename Routable>
int scan_and_bisect(const Routable& routable, int max_width) {
  int lo = 0;       // unroutable lower bound (exclusive; 0 tracks never routes)
  int hi = 4;       // candidate
  while (hi <= max_width && !routable(hi)) {
    lo = hi;
    hi *= 2;
  }
  MMFLOW_REQUIRE_MSG(hi <= max_width, "unroutable even at channel width "
                                          << max_width);
  // Binary search in (lo, hi].
  while (hi - lo > 1) {
    const int mid = (lo + hi) / 2;
    if (routable(mid)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

}  // namespace

int search_min_width(const std::function<bool(int)>& routable_at,
                     int max_width, int lower_bound) {
  // The scan never revisits a width, so each is probed at most once.
  return scan_and_bisect(
      [&](int width) {
        if (width < lower_bound) {
          MMFLOW_PERF_ADD("route.width_probes_bounded", 1);
          return false;
        }
        MMFLOW_PERF_ADD("route.width_probes", 1);
        return routable_at(width);
      },
      max_width);
}

std::vector<int> searched_widths(int min_width, int max_width) {
  // A failed probe becomes the bracket's `lo` and a routed one its `hi`, and
  // the search ends at lo == min_width - 1, hi == min_width. So every verdict
  // it saw agrees with `width >= min_width`, and a replay on that predicate
  // visits the same widths.
  std::vector<int> widths;
  const int answer = scan_and_bisect(
      [&](int width) {
        widths.push_back(width);
        return width >= min_width;
      },
      max_width);
  MMFLOW_REQUIRE_MSG(answer == min_width, "no search of widths up to "
                                              << max_width << " answers "
                                              << min_width);
  return widths;
}

int min_channel_width(
    arch::ArchSpec spec,
    const std::function<RouteProblem(const arch::RoutingGraph&)>& make_problem,
    const RouterOptions& options, int max_width) {
  MMFLOW_PERF_SCOPE("route.width_search");
  return search_min_width(
      [&](int width) {
        spec.channel_width = width;
        const arch::RoutingGraph rrg(spec);
        return route(rrg, make_problem(rrg), options).success;
      },
      max_width);
}

}  // namespace mmflow::route
