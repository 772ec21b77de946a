#include "core/flows.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/check.h"
#include "common/hash.h"
#include "common/log.h"
#include "common/perf.h"
#include "core/artifact_store.h"

namespace mmflow::core {

using arch::ArchSpec;
using arch::DeviceGrid;
using arch::RoutingGraph;
using arch::Site;

route::RouteProblem SiteRouteSpec::instantiate(const RoutingGraph& rrg) const {
  route::RouteProblem out;
  out.num_modes = num_modes;
  out.nets.reserve(nets.size());
  for (const Net& net : nets) {
    route::RouteNet rn;
    rn.name = net.name;
    rn.source_node = rrg.source_of(net.source);
    rn.conns.reserve(net.conns.size());
    for (const Conn& conn : net.conns) {
      rn.conns.push_back(route::RouteConn{rrg.sink_of(conn.sink), conn.modes});
    }
    out.nets.push_back(std::move(rn));
  }
  return out;
}

// ---- hashing ----------------------------------------------------------------

namespace {

/// Cache-key hasher; every field is serialized through it so the hash is a
/// function of values only, never of memory layout or padding. Strings are
/// length-prefixed, doubles canonicalized.
struct Fnv : hash::Fnv1a {
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(canonical_f64_bits(v)); }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s);
  }
};

}  // namespace

std::uint64_t canonical_f64_bits(double value) {
  MMFLOW_REQUIRE_MSG(!std::isnan(value),
                     "NaN cannot enter a flow cache key (it compares unequal "
                     "to itself, so the entry could never be found again)");
  if (value == 0.0) value = 0.0;  // collapse -0.0: the two compare equal
  return std::bit_cast<std::uint64_t>(value);
}

std::uint64_t hash_modes(const std::vector<techmap::LutCircuit>& modes) {
  Fnv fnv;
  fnv.u64(modes.size());
  for (const auto& mode : modes) {
    fnv.i64(mode.k());
    fnv.str(mode.name());
    fnv.u64(mode.num_pis());
    for (const auto& pi : mode.pi_names()) fnv.str(pi);
    fnv.u64(mode.num_blocks());
    for (const auto& block : mode.blocks()) {
      fnv.str(block.name);
      fnv.u64(block.inputs.size());
      for (const auto& ref : block.inputs) {
        fnv.byte(static_cast<std::uint8_t>(ref.kind));
        fnv.u64(ref.index);
      }
      fnv.u64(block.truth);
      fnv.byte(block.has_ff ? 1 : 0);
      fnv.byte(block.ff_init ? 1 : 0);
    }
    fnv.u64(mode.num_pos());
    for (const auto& po : mode.pos()) {
      fnv.str(po.name);
      fnv.byte(static_cast<std::uint8_t>(po.driver.kind));
      fnv.u64(po.driver.index);
    }
  }
  return fnv.h;
}

std::uint64_t hash_arch(const arch::ArchSpec& spec) {
  Fnv fnv;
  fnv.i64(spec.nx);
  fnv.i64(spec.ny);
  fnv.i64(spec.channel_width);
  fnv.i64(spec.k);
  fnv.i64(spec.io_capacity);
  fnv.byte(static_cast<std::uint8_t>(spec.switch_box));
  return fnv.h;
}

std::uint64_t hash_flow_options(const FlowOptions& options) {
  Fnv fnv;
  fnv.f64(options.area_slack);
  fnv.f64(options.width_slack);
  // Slot of the removed `encoding` knob (it never reached the flow), kept
  // at its historical default so every pinned options hash stays put.
  fnv.byte(0);
  fnv.f64(options.anneal.inner_num);
  fnv.f64(options.anneal.init_t_factor);
  fnv.f64(options.anneal.exit_t_fraction);
  const route::RouterOptions& r = options.router;
  fnv.i64(r.max_iterations);
  fnv.i64(r.split_conflicted_after);
  fnv.f64(r.first_iter_pres_fac);
  fnv.f64(r.pres_fac_mult);
  fnv.f64(r.max_pres_fac);
  fnv.f64(r.hist_fac);
  fnv.f64(r.share_discount);
  fnv.f64(r.align_discount);
  fnv.f64(r.astar_fac);
  // Slot of the removed, never-read `RouterOptions::seed`, kept at its
  // historical default for the same reason.
  fnv.u64(1);
  fnv.i64(options.max_channel_width);
  fnv.byte(options.tplace_from_scratch_for_edgematch ? 1 : 0);
  // timing_tradeoff is deliberately NOT hashed here: it rides in
  // FlowKey::variant (whole-experiment entries only), so the λ-independent
  // MDR artifacts share cache entries across a tradeoff sweep and every
  // hash is bit-identical to the ones produced before the knob existed.
  // route_jobs (and RouterOptions::jobs, which it overrides) is NOT hashed
  // either — routed results are bit-identical for every jobs value, so a
  // jobs sweep must share cache entries and keep every FlowKey stable
  // (asserted by tests/test_route_parallel.cpp).
  return fnv.h;
}

std::size_t FlowKeyHash::operator()(const FlowKey& key) const noexcept {
  Fnv fnv;
  fnv.u64(key.netlist);
  fnv.u64(key.arch);
  fnv.u64(key.options);
  fnv.u64(key.seed);
  fnv.u64(key.engine);
  fnv.i64(key.width);
  fnv.u64(key.variant);
  return static_cast<std::size_t>(fnv.h);
}

// ---- FlowCache --------------------------------------------------------------

FlowCache::FlowCache()
    : experiments_{perf::counter("flowcache.experiment_hits"),
                   perf::counter("flowcache.experiment_misses"),
                   &ArtifactStore::load_experiment,
                   &ArtifactStore::save_experiment,
                   {},
                   {}},
      mdr_{perf::counter("flowcache.mdr_hits"),
           perf::counter("flowcache.mdr_misses"), &ArtifactStore::load_mdr,
           &ArtifactStore::save_mdr, {}, {}},
      probes_{perf::counter("flowcache.probe_hits"),
              perf::counter("flowcache.probe_misses"),
              &ArtifactStore::load_probe, &ArtifactStore::save_probe, {}, {}},
      mdr_routes_{perf::counter("flowcache.final_route_hits"),
                  perf::counter("flowcache.final_route_misses"),
                  &ArtifactStore::load_mdr_routes,
                  &ArtifactStore::save_mdr_routes,
                  {},
                  {}} {}

void FlowCache::attach_store(std::shared_ptr<ArtifactStore> store) {
  const std::lock_guard<std::mutex> lock(mutex_);
  store_ = std::move(store);
}

template <typename T>
std::shared_ptr<const T> FlowCache::get_or_compute(
    Tier<T>& tier, const FlowKey& key, const std::function<T()>& compute) {
  using Shared = typename Tier<T>::Shared;
  std::promise<Shared> promise;
  std::shared_ptr<ArtifactStore> store;
  for (;;) {
    std::shared_future<Shared> pending;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      const auto it = tier.entries.find(key);
      if (it != tier.entries.end()) {
        tier.hits.fetch_add(1, std::memory_order_relaxed);
        return it->second;
      }
      const auto inflight = tier.inflight.find(key);
      if (inflight == tier.inflight.end()) {
        tier.misses.fetch_add(1, std::memory_order_relaxed);
        tier.inflight.emplace(key, promise.get_future().share());
        store = store_;
        break;
      }
      pending = inflight->second;
    }
    // Another caller is loading or computing this key: share its result. A
    // null result means its producer threw; look the key up again.
    Shared value;
    {
      MMFLOW_PERF_SCOPE("flowcache.wait");
      value = pending.get();
    }
    if (value != nullptr) {
      tier.hits.fetch_add(1, std::memory_order_relaxed);
      return value;
    }
  }

  // This caller is the key's only producer until the in-flight entry goes,
  // so the disk read, the compute and the write-behind happen once per key.
  // The entry is on disk before anyone sees it in memory.
  Shared value;
  try {
    std::optional<T> loaded;
    if (store != nullptr) loaded = ((*store).*tier.load)(key);
    const bool computed = !loaded.has_value();
    if (computed) loaded.emplace(compute());
    value = std::make_shared<const T>(std::move(*loaded));
    if (computed && store != nullptr) ((*store).*tier.save)(key, *value);
  } catch (...) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      tier.inflight.erase(key);
    }
    promise.set_value(nullptr);  // waiters retry; the error is this caller's
    throw;
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    tier.entries.emplace(key, value);
    tier.inflight.erase(key);
  }
  promise.set_value(value);
  return value;
}

std::shared_ptr<const MultiModeExperiment> FlowCache::experiment_or_compute(
    const FlowKey& key, const std::function<MultiModeExperiment()>& compute) {
  return get_or_compute(experiments_, key, compute);
}

std::shared_ptr<const std::vector<place::Placement>> FlowCache::mdr_or_compute(
    const FlowKey& key,
    const std::function<std::vector<place::Placement>()>& compute) {
  return get_or_compute(mdr_, key, compute);
}

bool FlowCache::probe_or_compute(const FlowKey& key,
                                 const std::function<bool()>& compute) {
  return *get_or_compute(probes_, key, compute);
}

std::shared_ptr<const std::vector<route::RouteResult>>
FlowCache::mdr_routes_or_compute(
    const FlowKey& key,
    const std::function<std::vector<route::RouteResult>()>& compute) {
  return get_or_compute(mdr_routes_, key, compute);
}

std::size_t FlowCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return experiments_.entries.size() + mdr_.entries.size() +
         probes_.entries.size() + mdr_routes_.entries.size();
}

void FlowCache::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  experiments_.entries.clear();
  mdr_.entries.clear();
  probes_.entries.clear();
  mdr_routes_.entries.clear();
}

// ---- RrgCache ---------------------------------------------------------------

std::shared_ptr<const RoutingGraph> RrgCache::get(const ArchSpec& spec) {
  std::promise<Graph> promise;
  std::shared_future<Graph> built;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = by_arch_.find(spec);
    if (it != by_arch_.end()) {
      MMFLOW_PERF_ADD("rrgcache.hits", 1);
      built = it->second;
    } else {
      MMFLOW_PERF_ADD("rrgcache.misses", 1);
      by_arch_.emplace(spec, promise.get_future().share());
    }
  }
  // A hit may still be in flight: wait for its build outside the lock.
  if (built.valid()) return built.get();
  // Build outside the lock: graph construction is the expensive part and
  // other widths' lookups should not serialize behind it. Callers of this
  // spec wait on the future instead of building it again. A build that
  // throws (an invalid spec) throws for every one of them.
  try {
    auto graph = std::make_shared<const RoutingGraph>(spec);
    promise.set_value(graph);
    return graph;
  } catch (...) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      by_arch_.erase(spec);
    }
    promise.set_exception(std::current_exception());
    throw;
  }
}

std::size_t RrgCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return by_arch_.size();
}

void RrgCache::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  by_arch_.clear();
}

// ---- run_experiment ---------------------------------------------------------

namespace {

/// Routing spec of one placed mode (single-mode problem for MDR).
SiteRouteSpec mdr_route_spec(const place::PlaceNetlist& netlist,
                             const place::Placement& placement) {
  SiteRouteSpec spec;
  spec.num_modes = 1;
  for (std::uint32_t n = 0; n < netlist.num_nets(); ++n) {
    const auto& net = netlist.nets()[n];
    SiteRouteSpec::Net out;
    out.name = "n" + std::to_string(n);
    out.source = placement.site_of(net.driver);
    for (const auto sink : net.sinks) {
      out.conns.push_back(SiteRouteSpec::Conn{placement.site_of(sink), 1});
    }
    spec.nets.push_back(std::move(out));
  }
  return spec;
}

}  // namespace

ModeImpl mdr_impl(const techmap::LutCircuit& mode, place::Placement placement) {
  ModeImpl impl{place::PlaceNetlist{}, {}, std::move(placement), {}};
  impl.netlist = place::to_place_netlist(mode, &impl.mapping);
  MMFLOW_REQUIRE_MSG(impl.placement.num_blocks() == impl.netlist.num_blocks(),
                     "placement of " << impl.placement.num_blocks()
                                     << " blocks for mode '" << mode.name()
                                     << "' of " << impl.netlist.num_blocks()
                                     << " blocks");
  impl.route_spec = mdr_route_spec(impl.netlist, impl.placement);
  return impl;
}

SiteRouteSpec dcs_route_spec_from(const tunable::TunableCircuit& tc,
                                  const std::vector<Site>& tlut_site,
                                  const std::vector<Site>& tio_site) {
  MMFLOW_REQUIRE(tlut_site.size() == tc.num_tluts() &&
                 tio_site.size() == tc.num_tios());
  SiteRouteSpec spec;
  spec.num_modes = tc.num_modes();
  auto site_of = [&](tunable::TRef r) {
    return r.kind == tunable::TRef::Kind::Tlut ? tlut_site[r.index]
                                               : tio_site[r.index];
  };
  for (const auto& net : tc.nets()) {
    SiteRouteSpec::Net out;
    out.name = (net.source.kind == tunable::TRef::Kind::Tlut ? "tlut" : "tio") +
               std::to_string(net.source.index);
    out.source = site_of(net.source);
    for (const auto c : net.conns) {
      const auto& conn = tc.conns()[c];
      out.conns.push_back(
          SiteRouteSpec::Conn{site_of(conn.sink),
                              static_cast<route::ModeMask>(conn.activation)});
    }
    spec.nets.push_back(std::move(out));
  }
  return spec;
}

int channel_cut_bound(const SiteRouteSpec& spec, const ArchSpec& region) {
  MMFLOW_REQUIRE(region.nx >= 1 && region.ny >= 1);
  // Per mode, a difference array of the nets crossing each column (rows):
  // a net spanning terminal columns [lo, hi] crosses columns lo+1 .. hi-1.
  std::vector<int> cols(static_cast<std::size_t>(region.nx) + 2);
  std::vector<int> rows(static_cast<std::size_t>(region.ny) + 2);
  auto widest = [](std::vector<int>& crossings, int wires_per_width) {
    int bound = 0;
    int count = 0;
    for (int& delta : crossings) {
      count += delta;
      bound = std::max(bound, (count + wires_per_width - 1) / wires_per_width);
      delta = 0;
    }
    return bound;
  };
  int bound = 1;
  for (int m = 0; m < spec.num_modes; ++m) {
    const route::ModeMask mode = route::ModeMask{1} << m;
    for (const SiteRouteSpec::Net& net : spec.nets) {
      int x_lo = net.source.x;
      int x_hi = net.source.x;
      int y_lo = net.source.y;
      int y_hi = net.source.y;
      bool active = false;
      for (const SiteRouteSpec::Conn& conn : net.conns) {
        if ((conn.modes & mode) == 0) continue;
        active = true;
        x_lo = std::min<int>(x_lo, conn.sink.x);
        x_hi = std::max<int>(x_hi, conn.sink.x);
        y_lo = std::min<int>(y_lo, conn.sink.y);
        y_hi = std::max<int>(y_hi, conn.sink.y);
      }
      if (!active) continue;
      MMFLOW_REQUIRE_MSG(x_lo >= 0 && x_hi <= region.nx + 1 && y_lo >= 0 &&
                             y_hi <= region.ny + 1,
                         "net " << net.name << " has a terminal off the "
                                << region.nx << "x" << region.ny << " region");
      if (x_hi - x_lo > 1) {
        ++cols[static_cast<std::size_t>(x_lo) + 1];
        --cols[static_cast<std::size_t>(x_hi)];
      }
      if (y_hi - y_lo > 1) {
        ++rows[static_cast<std::size_t>(y_lo) + 1];
        --rows[static_cast<std::size_t>(y_hi)];
      }
    }
    bound = std::max({bound, widest(cols, region.ny + 1),
                      widest(rows, region.nx + 1)});
  }
  return bound;
}

int width_lower_bound(const MultiModeExperiment& experiment,
                      const ArchSpec& region) {
  int bound = channel_cut_bound(experiment.dcs_route_spec, region);
  for (const ModeImpl& impl : experiment.mdr) {
    bound = std::max(bound, channel_cut_bound(impl.route_spec, region));
  }
  return bound;
}

namespace {

/// Places the merged Tunable circuit with TPlace from scratch (EdgeMatch
/// pipeline: topology is fixed, geometry is re-optimized).
void tplace_from_scratch(const tunable::TunableCircuit& tc,
                         const DeviceGrid& grid, std::uint64_t seed,
                         const place::AnnealOptions& anneal,
                         const CancelToken* cancel,
                         std::vector<Site>* tlut_site,
                         std::vector<Site>* tio_site) {
  // Lower the Tunable circuit to a PlaceNetlist: TLUTs are logic blocks,
  // TIOs are IO blocks, tunable nets are the placement nets.
  place::PlaceNetlist pn;
  for (std::uint32_t t = 0; t < tc.num_tluts(); ++t) {
    pn.add_block(place::PlaceBlock::Type::Clb, "tlut" + std::to_string(t));
  }
  const auto tio_base = static_cast<std::uint32_t>(pn.num_blocks());
  for (std::uint32_t t = 0; t < tc.num_tios(); ++t) {
    pn.add_block(place::PlaceBlock::Type::Io, "tio" + std::to_string(t));
  }
  auto block_of = [&](tunable::TRef r) {
    return r.kind == tunable::TRef::Kind::Tlut ? r.index : tio_base + r.index;
  };
  for (const auto& net : tc.nets()) {
    place::PlaceNet out;
    out.driver = block_of(net.source);
    for (const auto c : net.conns) {
      out.sinks.push_back(block_of(tc.conns()[c].sink));
    }
    std::sort(out.sinks.begin(), out.sinks.end());
    out.sinks.erase(std::unique(out.sinks.begin(), out.sinks.end()),
                    out.sinks.end());
    if (!out.sinks.empty()) pn.add_net(std::move(out));
  }

  place::PlacerOptions options;
  options.seed = seed;
  options.anneal = anneal;
  options.cancel = cancel;
  const place::Placement placed = place::place(pn, grid, options);

  tlut_site->resize(tc.num_tluts());
  tio_site->resize(tc.num_tios());
  for (std::uint32_t t = 0; t < tc.num_tluts(); ++t) {
    (*tlut_site)[t] = placed.site_of(t);
  }
  for (std::uint32_t t = 0; t < tc.num_tios(); ++t) {
    (*tio_site)[t] = placed.site_of(tio_base + t);
  }
}

}  // namespace

namespace {

/// The uncached pipeline body. `base_key` carries the (netlist, arch,
/// options, seed) identity for the *sub-experiment* caches when
/// `context.cache` is set; the whole-experiment cache is the callers'
/// business (run_experiment_shared).
MultiModeExperiment compute_experiment(
    const std::vector<techmap::LutCircuit>& modes, const FlowOptions& options,
    const FlowContext& context, const ArchSpec& base, const FlowKey& base_key) {
  MMFLOW_PERF_SCOPE("flow.experiment");
  MMFLOW_PERF_ADD("flow.experiments", 1);
  const int num_modes = static_cast<int>(modes.size());
  const DeviceGrid grid(base);
  FlowCache* const cache = context.cache;

  // The flow-level route_jobs knob overrides the router-level one for every
  // route call below. Results are bit-identical for any value, which is why
  // neither knob participates in hash_flow_options or the FlowKeys.
  route::RouterOptions router = options.router;
  router.jobs = options.route_jobs;
  // The cancel token rides the same way: execution-only, so it reaches every
  // long loop (annealers below, PathFinder here) without touching any key.
  router.cancel = options.cancel;

  // Shared immutable RRGs when a cache is provided, locally built otherwise.
  auto rrg_for = [&](const ArchSpec& spec) -> std::shared_ptr<const RoutingGraph> {
    if (context.rrgs != nullptr) return context.rrgs->get(spec);
    return std::make_shared<const RoutingGraph>(spec);
  };

  MultiModeExperiment exp;

  // ---- MDR: place every mode separately ------------------------------------
  // Only the placements are annealed (and cached); every ModeImpl is then
  // derived from them the same way on a hit and on a miss.
  {
    MMFLOW_PERF_SCOPE("flow.mdr_place");
    auto compute_mdr = [&] {
      std::vector<place::Placement> placements;
      for (int m = 0; m < num_modes; ++m) {
        place::PlacerOptions popt;
        popt.seed = options.seed * 1000003u + static_cast<std::uint64_t>(m);
        popt.anneal = options.anneal;
        popt.cancel = options.cancel;
        placements.push_back(place::place(
            place::to_place_netlist(modes[static_cast<std::size_t>(m)]), grid,
            popt));
      }
      return placements;
    };
    std::vector<place::Placement> placements =
        cache != nullptr ? *cache->mdr_or_compute(base_key, compute_mdr)
                         : compute_mdr();
    exp.mdr.reserve(modes.size());
    for (std::size_t m = 0; m < modes.size(); ++m) {
      exp.mdr.push_back(mdr_impl(modes[m], std::move(placements[m])));
    }
  }

  // ---- DCS: combined placement, merge, TPlace ------------------------------
  CombinedPlaceOptions cp_options;
  cp_options.cost = options.cost_engine;
  cp_options.seed = options.seed * 6364136223846793005ULL + 1;
  cp_options.anneal = options.anneal;
  cp_options.timing_tradeoff = options.timing_tradeoff;
  cp_options.cancel = options.cancel;
  const CombinedPlacement combined = combined_place(modes, grid, cp_options);
  ExtractedMerge merge = extract_merge(combined, grid);

  exp.tunable.emplace(modes, merge.assignment);
  exp.tlut_site = std::move(merge.tlut_site);
  exp.tio_site = std::move(merge.tio_site);
  exp.total_mode_connections = exp.tunable->total_mode_connections();
  exp.merged_connections = exp.tunable->num_merged_connections();

  if (options.cost_engine == CombinedCost::EdgeMatch &&
      options.tplace_from_scratch_for_edgematch) {
    MMFLOW_PERF_SCOPE("flow.tplace");
    tplace_from_scratch(*exp.tunable, grid,
                        options.seed * 2862933555777941757ULL + 3,
                        options.anneal, options.cancel, &exp.tlut_site,
                        &exp.tio_site);
  }
  exp.dcs_route_spec =
      dcs_route_spec_from(*exp.tunable, exp.tlut_site, exp.tio_site);

  // ---- channel width: smallest W at which every implementation routes ------
  // The MDR probe outcome at a given width is engine-independent, so it is
  // cached under (base_key, width) and reused by the other engine's search.
  auto all_route = [&](int width) {
    ArchSpec spec = base;
    spec.channel_width = width;
    std::shared_ptr<const RoutingGraph> rrg_sp;  // built lazily: a cached
                                                 // MDR probe may answer
                                                 // "unroutable" without one
    auto rrg = [&]() -> const RoutingGraph& {
      if (rrg_sp == nullptr) rrg_sp = rrg_for(spec);
      return *rrg_sp;
    };
    auto probe_mdr = [&] {
      for (const auto& impl : exp.mdr) {
        if (!route::route(rrg(), impl.route_spec.instantiate(rrg()), router)
                 .success) {
          return false;
        }
      }
      return true;
    };
    FlowKey probe_key = base_key;
    probe_key.width = width;
    const bool mdr_ok = cache != nullptr
                            ? cache->probe_or_compute(probe_key, probe_mdr)
                            : probe_mdr();
    if (!mdr_ok) return false;
    return route::route(rrg(), exp.dcs_route_spec.instantiate(rrg()),
                        router)
        .success;
  };
  {
    MMFLOW_PERF_SCOPE("flow.width_search");
    exp.min_width = route::search_min_width(
        all_route, options.max_channel_width, width_lower_bound(exp, base));
  }
  const int hi = exp.min_width;

  // ---- final implementation with relaxed routing ----------------------------
  MMFLOW_PERF_SCOPE("flow.final_route");
  exp.region = base;
  exp.region.channel_width = std::max(
      hi, static_cast<int>(std::ceil(hi * options.width_slack)));
  const std::shared_ptr<const RoutingGraph> rrg_sp = rrg_for(exp.region);
  const RoutingGraph& rrg = *rrg_sp;
  auto route_mdr = [&] {
    std::vector<route::RouteResult> routes;
    for (const auto& impl : exp.mdr) {
      routes.push_back(
          route::route(rrg, impl.route_spec.instantiate(rrg), router));
      MMFLOW_CHECK_MSG(routes.back().success,
                       "MDR mode unroutable at relaxed width");
    }
    return routes;
  };
  FlowKey final_key = base_key;
  final_key.width = exp.region.channel_width;
  exp.mdr_routing = cache != nullptr
                        ? *cache->mdr_routes_or_compute(final_key, route_mdr)
                        : route_mdr();
  exp.dcs_routing =
      route::route(rrg, exp.dcs_route_spec.instantiate(rrg), router);
  MMFLOW_CHECK_MSG(exp.dcs_routing.success,
                   "DCS circuit unroutable at relaxed width");
  return exp;
}

/// The entry check of `experiment_key`, `run_experiment_shared` and
/// `run_experiment`: a bad input fails before any annealing or store write.
void require_valid_inputs(const std::vector<techmap::LutCircuit>& modes,
                          const FlowOptions& options) {
  MMFLOW_REQUIRE(!modes.empty() && modes.size() <= 32);
  MMFLOW_REQUIRE_MSG(
      options.timing_tradeoff >= 0.0 && options.timing_tradeoff <= 1.0,
      "timing_tradeoff must be in [0, 1], got " << options.timing_tradeoff);
}

/// Region sizing: the square logic array fits the largest mode with the
/// paper's area head-room. Cheap enough to recompute per call.
ArchSpec base_region(const std::vector<techmap::LutCircuit>& modes,
                     const FlowOptions& options) {
  int max_clbs = 0;
  int max_ios = 0;
  for (const auto& mode : modes) {
    max_clbs = std::max<int>(max_clbs, static_cast<int>(mode.num_blocks()));
    max_ios = std::max<int>(
        max_ios, static_cast<int>(mode.num_pis() + mode.num_pos()));
  }
  return arch::size_device(max_clbs, max_ios, options.area_slack, 2,
                           modes[0].k());
}

/// Whole-experiment key against a precomputed base region; the single point
/// of truth the public `experiment_key` and `run_experiment_shared` share
/// (a manifest entry written from one must match a lookup from the other).
FlowKey experiment_key_for(const ArchSpec& base,
                           const std::vector<techmap::LutCircuit>& modes,
                           const FlowOptions& options) {
  FlowKey key;
  key.netlist = hash_modes(modes);
  key.arch = hash_arch(base);
  key.options = hash_flow_options(options);
  key.seed = options.seed;
  key.engine = 1u + static_cast<std::uint32_t>(options.cost_engine);
  // Canonical bits, not raw bits: λ = -0.0 must address the λ = 0.0 entry
  // (they run the identical flow), on disk as much as in memory.
  key.variant = canonical_f64_bits(options.timing_tradeoff);
  return key;
}

}  // namespace

FlowKey experiment_key(const std::vector<techmap::LutCircuit>& modes,
                       const FlowOptions& options) {
  require_valid_inputs(modes, options);
  return experiment_key_for(base_region(modes, options), modes, options);
}

std::shared_ptr<const MultiModeExperiment> run_experiment_shared(
    const std::vector<techmap::LutCircuit>& modes, const FlowOptions& options,
    const FlowContext& context) {
  require_valid_inputs(modes, options);
  const ArchSpec base = base_region(modes, options);
  FlowCache* const cache = context.cache;
  if (cache == nullptr) {
    return std::make_shared<const MultiModeExperiment>(
        compute_experiment(modes, options, context, base, FlowKey{}));
  }
  // `exp_key` identifies the whole experiment; `base_key` drops the cost
  // engine and λ variant and identifies the engine-independent MDR
  // artifacts.
  const FlowKey exp_key = experiment_key_for(base, modes, options);
  FlowKey base_key = exp_key;
  base_key.engine = 0;
  base_key.variant = 0;
  return cache->experiment_or_compute(exp_key, [&] {
    return compute_experiment(modes, options, context, base, base_key);
  });
}

MultiModeExperiment run_experiment(const std::vector<techmap::LutCircuit>& modes,
                                   const FlowOptions& options) {
  return run_experiment(modes, options, FlowContext{});
}

MultiModeExperiment run_experiment(const std::vector<techmap::LutCircuit>& modes,
                                   const FlowOptions& options,
                                   const FlowContext& context) {
  if (context.cache == nullptr) {
    // No whole-experiment cache to feed: skip the shared wrapper and its
    // copy-out so the plain path costs exactly what it did uncached.
    require_valid_inputs(modes, options);
    return compute_experiment(modes, options, context,
                              base_region(modes, options), FlowKey{});
  }
  return *run_experiment_shared(modes, options, context);
}

std::vector<bitstream::LutRegionConfig> mdr_lut_configs(
    const MultiModeExperiment& experiment,
    const std::vector<techmap::LutCircuit>& modes) {
  const DeviceGrid grid(experiment.region);
  std::vector<bitstream::LutRegionConfig> configs;
  for (std::size_t m = 0; m < modes.size(); ++m) {
    bitstream::LutRegionConfig config(grid.num_clb_sites());
    const auto& impl = experiment.mdr[m];
    for (std::uint32_t lut = 0; lut < modes[m].num_blocks(); ++lut) {
      const Site s = impl.placement.site_of(impl.mapping.lut_block(lut));
      const auto& block = modes[m].blocks()[lut];
      config.set_site(grid.clb_index(s.x, s.y), block.truth, block.has_ff);
    }
    configs.push_back(std::move(config));
  }
  return configs;
}

std::vector<bitstream::LutRegionConfig> dcs_lut_configs(
    const MultiModeExperiment& experiment) {
  MMFLOW_REQUIRE(experiment.tunable.has_value());
  const auto& tc = *experiment.tunable;
  const DeviceGrid grid(experiment.region);
  std::vector<bitstream::LutRegionConfig> configs;
  for (int m = 0; m < tc.num_modes(); ++m) {
    bitstream::LutRegionConfig config(grid.num_clb_sites());
    for (std::uint32_t t = 0; t < tc.num_tluts(); ++t) {
      const Site s = experiment.tlut_site[t];
      config.set_site(grid.clb_index(s.x, s.y), tc.mode_truth(t, m),
                      tc.mode_uses_ff(t, m));
    }
    configs.push_back(std::move(config));
  }
  return configs;
}

}  // namespace mmflow::core
