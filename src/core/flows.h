#pragma once
/// \file flows.h
/// The two end-to-end multi-mode implementation flows the paper compares
/// (Fig. 2):
///  * **MDR** (Modular Dynamic Reconfiguration): every mode is placed and
///    routed separately in the shared reconfigurable region; a mode switch
///    rewrites the whole region.
///  * **DCS** (the paper's flow): map every mode, place all modes together
///    (combined placement, §III-A), merge co-located LUTs into a Tunable
///    circuit, refine with TPlace, route with TRoute, and emit a
///    parameterized configuration whose mode-dependent bits are the only
///    ones rewritten on a switch.
///
/// Region protocol (§IV-B): one device serves both flows — the square logic
/// array is sized 20% above the largest mode, and the channel width is 20%
/// above the minimum at which *every* implementation (each MDR mode and the
/// DCS Tunable circuit) routes. Using the same region for both flows keeps
/// the bit-count comparison fair.
///
/// ## Flow-level caching (PR 2)
///
/// `run_experiment` is a pure function of (modes, options): identical inputs
/// produce bit-identical outputs. The caching layer below exploits that
/// purity. A `FlowContext` carries two optional caches:
///  * `FlowCache` — memoizes flow artifacts under a `FlowKey`
///    (netlist hash, arch hash, options hash, seed, engine, width), at four
///    granularities: whole experiments, the engine-independent MDR
///    placements (one per mode), per-width MDR routability probes, and the
///    final-width MDR routings. All four share one get-or-compute path
///    (memory map, in-flight sharing, disk read-through, write-behind), so
///    every artifact is computed once per cache. Only what is expensive to
///    recompute is cached — annealed placements, the merge, routes, probe
///    verdicts. Everything linear-time is re-derived through the functions
///    the flow itself uses, on a hit and a miss alike: a mode's netlist,
///    mapping and MDR route spec come from `mdr_impl`, the DCS route spec
///    from `dcs_route_spec_from`, and a `RouteProblem` is
///    `SiteRouteSpec::instantiate` of a spec against the region's RRG. The
///    sub-experiment entries are what make cost-engine comparisons cheap:
///    the MDR side of an EdgeMatch run is bit-identical to the MDR side of
///    a WireLength run, so the second engine reuses it instead of
///    re-annealing and re-routing.
///  * `RrgCache` — shares immutable `arch::RoutingGraph` instances across
///    runs (keyed by the full ArchSpec, including channel width). One batch
///    of seed restarts probes the same widths over and over; the graph is
///    built once per width.
///
/// Since PR 5 a `FlowCache` can additionally persist across processes: an
/// attached `core::ArtifactStore` (see core/artifact_store.h and
/// docs/CACHING.md) makes memory misses read through to content-addressed
/// on-disk entries and writes freshly computed artifacts behind, so a warm
/// second process reproduces a cold first process's QoR bit-identically
/// while skipping the cached work.
///
/// **Determinism contract**: every cached value is the output of a
/// deterministic function of its key, so a cache hit returns exactly the
/// bytes a recomputation would produce. Batched/parallel runs therefore
/// yield bit-identical per-seed results to sequential runs — the batch
/// tests assert this. Because concurrent callers of one key share a single
/// computation, scheduling does not change the work done or the hit/miss
/// counts either; it only changes *which* caller pays for a miss.
///
/// **Ownership & thread-safety**: caches own their entries and hand out
/// `shared_ptr<const T>` — callers may hold values after the cache is
/// cleared, and entries are immutable after insertion. All cache methods are
/// mutex-guarded and safe to call from concurrent flow jobs; a key has one
/// producer at a time, and concurrent callers of that key wait for it.
/// `FlowContext` itself is a non-owning view; the pointed-to caches must
/// outlive every `run_experiment` call using it.

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "arch/rrg.h"
#include "bitstream/config_model.h"
#include "common/perf.h"
#include "core/combined_place.h"
#include "route/router.h"
#include "tunable/tunable_circuit.h"

namespace mmflow::core {

class ArtifactStore;  // core/artifact_store.h — on-disk persistence layer

/// Channel-width-independent routing problem (sink/source sites instead of
/// RRG node ids), instantiated per candidate W during the search.
struct SiteRouteSpec {
  struct Conn {
    arch::Site sink;
    route::ModeMask modes = 1;
  };
  struct Net {
    std::string name;
    arch::Site source;
    std::vector<Conn> conns;
  };
  int num_modes = 1;
  std::vector<Net> nets;

  [[nodiscard]] route::RouteProblem instantiate(
      const arch::RoutingGraph& rrg) const;
};

struct FlowOptions {
  CombinedCost cost_engine = CombinedCost::WireLength;
  std::uint64_t seed = 1;
  double area_slack = 1.2;        ///< paper: square area 20% above minimum
  double width_slack = 1.2;       ///< paper: channel width 20% above minimum
  place::AnnealOptions anneal;    ///< shared by all SA runs
  route::RouterOptions router;
  int max_channel_width = 128;
  /// EdgeMatch freezes topology before geometry, so its Tunable circuit is
  /// re-placed from scratch by TPlace (the paper's pipeline). WireLength
  /// keeps the combined placement's positions and only quench-polishes.
  bool tplace_from_scratch_for_edgematch = true;
  /// Timing-driven combined placement: λ in [0, 1] blending the WireLength
  /// engine's merged-wirelength objective with a criticality-weighted
  /// pre-route timing term (see place/cost_model.h). Only the DCS side is
  /// timing-driven — the MDR baseline stays wirelength-driven so
  /// core::timing_report ratios measure the DCS gain against the paper's
  /// fixed reference flow. 0 (the default) is bit-identical to the λ-less
  /// flow, including the cached-flow hash.
  double timing_tradeoff = 0.0;
  /// Worker threads for the parallel routing waves inside every route call
  /// of the flow (width probes and final MDR/DCS routes): 1 = sequential
  /// (the default), 0 = one per hardware thread, K = K workers. The flow
  /// copies this into `RouterOptions::jobs` (overriding `router.jobs`).
  /// Routed results are bit-identical for every value (docs/ROUTING.md), so
  /// the knob is deliberately excluded from `hash_flow_options` and from
  /// every `FlowKey` — a jobs sweep shares all cache entries, and results
  /// cached at one jobs level are byte-identical to any other.
  int route_jobs = 1;
  /// Optional cooperative cancellation/deadline token, polled at annealer
  /// temperature epochs and PathFinder iterations throughout the flow (the
  /// batch driver plants per-job deadline tokens here — see core/batch.h).
  /// Execution-only like `route_jobs`: a token never changes the bits a
  /// *completed* flow produces, and a tripped token unwinds by exception
  /// before any cache/store write, so it is excluded from
  /// `hash_flow_options` and every `FlowKey`. Not owned; may be null.
  const CancelToken* cancel = nullptr;
};

/// One mode's MDR implementation. Only `placement` is annealed; the rest is
/// derived from the mode circuit and the placement by `mdr_impl`.
struct ModeImpl {
  place::PlaceNetlist netlist;
  place::LutPlaceMapping mapping;
  place::Placement placement;
  SiteRouteSpec route_spec;
};

/// Everything produced for one multi-mode circuit: both flows on one region.
struct MultiModeExperiment {
  arch::ArchSpec region;                     ///< final device (incl. W)
  int min_width = 0;                         ///< W_min found by the search

  // MDR.
  std::vector<ModeImpl> mdr;
  /// Per mode, routed at `region`; its problem is
  /// `mdr[m].route_spec.instantiate(RoutingGraph(region))`.
  std::vector<route::RouteResult> mdr_routing;

  // DCS.
  std::optional<tunable::TunableCircuit> tunable;
  std::vector<arch::Site> tlut_site;
  std::vector<arch::Site> tio_site;
  SiteRouteSpec dcs_route_spec;
  route::RouteResult dcs_routing;  ///< routed `dcs_route_spec` at `region`

  // Merge statistics.
  std::size_t total_mode_connections = 0;
  std::size_t merged_connections = 0;
};

/// One mode's MDR implementation from its circuit and its placement: the
/// netlist and mapping of `place::to_place_netlist` plus the single-mode
/// route spec. The flow and the artifact store's reader both build every
/// `ModeImpl` here. Requires `placement` to hold one site per netlist block.
[[nodiscard]] ModeImpl mdr_impl(const techmap::LutCircuit& mode,
                                place::Placement placement);

/// Routing spec of the Tunable circuit: one net per tunable source endpoint,
/// one connection per Tunable connection with its activation mask. Requires
/// one site per TLUT and per TIO.
[[nodiscard]] SiteRouteSpec dcs_route_spec_from(
    const tunable::TunableCircuit& tc, const std::vector<arch::Site>& tlut_site,
    const std::vector<arch::Site>& tio_site);

/// Channel-cut lower bound on the channel width at which `spec` can route on
/// `region` (whose own `channel_width` is ignored). In each mode, a net whose
/// active terminals (its source and the sinks of its connections active in
/// that mode) lie strictly left and strictly right of logic column c needs
/// its own CHANX(c, ·) wire: pins only enter and leave the channels, so no
/// path crosses the column through a block, and the router never lets two
/// nets share a wire in one mode. The column has (ny+1)·W such wires, so
/// W >= ⌈count/(ny+1)⌉; rows bound W the same way with CHANY(·, r) and
/// nx+1. Returns the largest such bound, and at least 1. `route()` cannot
/// succeed below it (docs/ROUTING.md, "The channel-cut lower bound").
[[nodiscard]] int channel_cut_bound(const SiteRouteSpec& spec,
                                    const arch::ArchSpec& region);

/// The width below which no probe of `experiment`'s width search can route:
/// the largest `channel_cut_bound` of its MDR route specs and its DCS route
/// spec on `region`.
[[nodiscard]] int width_lower_bound(const MultiModeExperiment& experiment,
                                    const arch::ArchSpec& region);

// ---- flow-level caching -----------------------------------------------------

/// Stable 64-bit structural hash of the mode circuits (FNV-1a over every
/// block, truth table, connection and name). Two mode lists hash equal iff a
/// flow run cannot distinguish them.
[[nodiscard]] std::uint64_t hash_modes(
    const std::vector<techmap::LutCircuit>& modes);

/// Stable hash of a full ArchSpec (including channel width).
[[nodiscard]] std::uint64_t hash_arch(const arch::ArchSpec& spec);

/// Stable hash of the flow knobs that influence results, *excluding* the
/// seed and the cost engine — those are separate `FlowKey` fields so that
/// engine-independent artifacts can share entries across engines.
/// Floating-point knobs are hashed through `canonical_f64_bits`, so
/// semantically equal options always hash equal (a hard requirement once
/// keys address on-disk entries); NaN knobs are rejected.
[[nodiscard]] std::uint64_t hash_flow_options(const FlowOptions& options);

/// Canonical IEEE-754 bit pattern used wherever a double enters a cache key
/// (`hash_flow_options` fields, `FlowKey::variant`): -0.0 normalizes to
/// +0.0 — the two compare equal, so they must never address distinct
/// on-disk entries — and NaN throws (no flow knob has a meaningful NaN
/// value, and NaN != NaN would make the key unusable).
[[nodiscard]] std::uint64_t canonical_f64_bits(double value);

/// Cache key for one flow artifact. `engine` is `1 + CombinedCost` for
/// engine-specific entries and 0 for engine-independent ones (the MDR side);
/// `width` is the channel width for per-width entries and -1 for
/// width-independent ones; `variant` is the bit pattern of
/// `timing_tradeoff` for λ-dependent entries (whole experiments) and 0 for
/// λ-independent ones — like `engine`, it lives in the key rather than the
/// options hash so the MDR placements, width probes and final MDR routes are
/// shared across λ values (a tradeoff sweep pays for the baseline once).
struct FlowKey {
  std::uint64_t netlist = 0;   ///< hash_modes of the input circuits
  std::uint64_t arch = 0;      ///< hash_arch of the base region
  std::uint64_t options = 0;   ///< hash_flow_options
  std::uint64_t seed = 0;      ///< FlowOptions::seed
  std::uint32_t engine = 0;    ///< 0 = engine-independent, else 1+CombinedCost
  std::int32_t width = -1;     ///< -1 = width-independent
  std::uint64_t variant = 0;   ///< 0 = λ-independent, else timing_tradeoff bits

  friend bool operator==(const FlowKey&, const FlowKey&) = default;
};

struct FlowKeyHash {
  [[nodiscard]] std::size_t operator()(const FlowKey& key) const noexcept;
};

/// The whole-experiment `FlowKey` that `run_experiment_shared` files
/// `(modes, options)` under — exposed so sweep drivers can address results
/// without running the flow (the batch driver's run manifest and `--resume`
/// are built on it; see core/manifest.h). Dominated by `hash_modes`, so
/// hoist it out of per-seed loops where possible.
[[nodiscard]] FlowKey experiment_key(
    const std::vector<techmap::LutCircuit>& modes, const FlowOptions& options);

/// Memoizes flow artifacts (see the file comment for the determinism,
/// ownership and thread-safety contracts). Every lookup bumps a
/// `flowcache.<kind>_hits` / `flowcache.<kind>_misses` perf counter.
///
/// With an `ArtifactStore` attached (see `attach_store`), the cache becomes
/// a two-level hierarchy: memory misses read through to the on-disk store
/// (`flowcache.disk_hits`; loaded entries are promoted into memory), and
/// every freshly computed artifact is written behind to disk
/// (`flowcache.disk_writes`) — so a later process starts warm. All disk
/// failure modes degrade to misses; see core/artifact_store.h.
class FlowCache {
 public:
  FlowCache();

  /// Attaches (or, with nullptr, detaches) the persistence layer. Not
  /// thread-safe against concurrent lookups — attach before handing the
  /// cache to flow jobs. The store may be shared by several caches.
  void attach_store(std::shared_ptr<ArtifactStore> store);

  /// Each `*_or_compute` returns the artifact filed under `key`, running
  /// `compute` only if neither memory nor the attached store holds it. A key
  /// is computed at most once even under concurrency: a caller that arrives
  /// while another caller loads or computes the same key waits for that
  /// result, timing the wait in the `flowcache.wait` timer, and counts as a
  /// `flowcache.<kind>_hits`; the one caller that counts the miss reads
  /// through to disk, computes only on a disk miss, and writes the computed
  /// entry behind. If `compute` throws, the
  /// exception reaches that caller only; each waiter then looks the key up
  /// again and one of them computes it.
  std::shared_ptr<const MultiModeExperiment> experiment_or_compute(
      const FlowKey& key, const std::function<MultiModeExperiment()>& compute);
  /// The MDR placements, one per mode.
  std::shared_ptr<const std::vector<place::Placement>> mdr_or_compute(
      const FlowKey& key,
      const std::function<std::vector<place::Placement>()>& compute);
  /// Routability of the MDR implementations at `key.width`.
  bool probe_or_compute(const FlowKey& key,
                        const std::function<bool()>& compute);
  /// The final-width MDR routings, one per mode.
  std::shared_ptr<const std::vector<route::RouteResult>> mdr_routes_or_compute(
      const FlowKey& key,
      const std::function<std::vector<route::RouteResult>()>& compute);

  /// Total entries across all four maps.
  [[nodiscard]] std::size_t size() const;
  void clear();

 private:
  /// One artifact kind: its memory entries and the keys being loaded or
  /// computed (both guarded by `mutex_`), its
  /// `flowcache.<kind>_{hits,misses}` counters and its on-disk codec. An
  /// in-flight future resolves to the entry, or to null if its producer
  /// threw.
  template <typename T>
  struct Tier {
    using Shared = std::shared_ptr<const T>;
    perf::Counter& hits;
    perf::Counter& misses;
    std::optional<T> (ArtifactStore::*load)(const FlowKey&) const;
    bool (ArtifactStore::*save)(const FlowKey&, const T&);
    std::unordered_map<FlowKey, Shared, FlowKeyHash> entries;
    std::unordered_map<FlowKey, std::shared_future<Shared>, FlowKeyHash>
        inflight;
  };

  /// The one miss path of every tier (see `experiment_or_compute`).
  template <typename T>
  std::shared_ptr<const T> get_or_compute(Tier<T>& tier, const FlowKey& key,
                                          const std::function<T()>& compute);

  mutable std::mutex mutex_;
  Tier<MultiModeExperiment> experiments_;
  Tier<std::vector<place::Placement>> mdr_;
  Tier<bool> probes_;
  Tier<std::vector<route::RouteResult>> mdr_routes_;
  /// Optional on-disk second level (core/artifact_store.h); null = memory
  /// only, the pre-PR 5 behaviour.
  std::shared_ptr<ArtifactStore> store_;
};

/// Shares immutable routing resource graphs across runs, keyed by the full
/// ArchSpec (exact field equality — unlike the FlowCache's content hashes,
/// no hash collision can ever substitute a wrong graph). Thread-safe; each
/// spec's graph is built once: callers that arrive during its build wait
/// for it and count as hits. Entries live until `clear()` (callers keep
/// their shared_ptr past that). Bumps `rrgcache.hits` / `rrgcache.misses`.
class RrgCache {
 public:
  /// Returns the graph for `spec`, building it on first use.
  std::shared_ptr<const arch::RoutingGraph> get(const arch::ArchSpec& spec);

  [[nodiscard]] std::size_t size() const;
  void clear();

 private:
  using Graph = std::shared_ptr<const arch::RoutingGraph>;
  struct SpecHash {
    std::size_t operator()(const arch::ArchSpec& spec) const {
      return static_cast<std::size_t>(hash_arch(spec));
    }
  };
  mutable std::mutex mutex_;
  /// Built graphs and builds in flight.
  std::unordered_map<arch::ArchSpec, std::shared_future<Graph>, SpecHash>
      by_arch_;
};

/// Non-owning bundle of the caches a flow run may consult. Either pointer
/// may be null (that cache is simply skipped); the default context disables
/// all caching, which reproduces the uncached PR 1 behaviour exactly.
struct FlowContext {
  FlowCache* cache = nullptr;
  RrgCache* rrgs = nullptr;
};

// ---- the flows --------------------------------------------------------------

/// Runs both flows on one region. The input LutCircuits are the mapped mode
/// circuits ("the MDR tool flow is followed up until the technology
/// mapping"); they are never mutated and no copy is taken. Throws if the
/// circuits cannot be routed within options.max_channel_width.
///
/// Re-entrant: safe to call concurrently from several threads (the batch
/// driver does), including with a shared `context` — see the caching
/// contracts in the file comment.
///
/// The `_shared` form is the zero-copy entry point: on a cache hit it hands
/// out the cache's own (immutable) entry, and on a miss the freshly
/// computed experiment is moved — never copied — into the result. The
/// by-value forms copy once out of it and exist for call sites that want a
/// mutable or independently owned experiment.
[[nodiscard]] std::shared_ptr<const MultiModeExperiment> run_experiment_shared(
    const std::vector<techmap::LutCircuit>& modes, const FlowOptions& options,
    const FlowContext& context);

[[nodiscard]] MultiModeExperiment run_experiment(
    const std::vector<techmap::LutCircuit>& modes, const FlowOptions& options,
    const FlowContext& context);

[[nodiscard]] MultiModeExperiment run_experiment(
    const std::vector<techmap::LutCircuit>& modes,
    const FlowOptions& options = {});

/// Builds the per-mode LUT region configurations (truth bits + FF select per
/// site) for the MDR implementations.
[[nodiscard]] std::vector<bitstream::LutRegionConfig> mdr_lut_configs(
    const MultiModeExperiment& experiment,
    const std::vector<techmap::LutCircuit>& modes);

/// Builds the per-mode LUT region configurations for the DCS implementation.
[[nodiscard]] std::vector<bitstream::LutRegionConfig> dcs_lut_configs(
    const MultiModeExperiment& experiment);

}  // namespace mmflow::core
