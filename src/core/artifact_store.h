#pragma once
/// \file artifact_store.h
/// On-disk, cross-process persistence layer under `core::FlowCache` — the
/// ROADMAP's "on-disk artifact store". Every in-memory cache granularity
/// (whole experiments, the engine-independent MDR placements, per-width MDR
/// routability probes, final-width MDR routes) gets a content-addressed
/// file keyed by its `FlowKey` structural hashes, so a second process —
/// or a sharded batch on another machine sharing the directory — replays
/// a first process's work as cache hits with bit-identical QoR.
///
/// ## Store layout and entry format (docs/CACHING.md has the full spec)
///
/// ```
/// <root>/experiments/<key>.bin   MultiModeExperiment
/// <root>/mdr/<key>.bin           std::vector<place::Placement>
/// <root>/probes/<key>.bin        bool (routability at key.width)
/// <root>/routes/<key>.bin        std::vector<route::RouteResult>
/// ```
///
/// `<key>` spells out all seven FlowKey fields in hex, so the filename *is*
/// the full key — no filename-hash collision can substitute a wrong
/// artifact. Every entry starts with a fixed header: magic, store-format
/// version, schema hash (an FNV over a description of the serialized field
/// layout — bumping either invalidates every stale entry cleanly), the
/// artifact kind, the full FlowKey again, and the payload size + FNV
/// checksum. A little-endian, fixed-width binary payload follows. One
/// framed load/save path serves all four kinds; each type contributes only
/// its payload codec.
///
/// ## Failure contract
///
/// Reads are corruption-tolerant by construction: a missing file, a
/// truncated or garbled entry, a format/schema/kind/key mismatch, or a
/// payload that fails domain validation during deserialization is a cache
/// *miss* (`std::nullopt`), never an abort — the flow recomputes and
/// rewrites. Writes are atomic (tmp file + rename) and best-effort: an
/// unwritable directory degrades the store to read-only (or to a no-op)
/// without failing the flow. Outcomes are counted as
/// `flowcache.disk_hits` / `disk_misses` / `disk_invalid` /
/// `disk_writes` / `disk_write_errors` (disjoint per lookup/commit).
///
/// ## Determinism contract
///
/// A payload holds only what the flow cannot cheaply re-derive, bit for
/// bit: the region and minimum width, the annealed placements (MDR
/// placements, TLUT/TIO sites), routed paths, probe verdicts, and the exact
/// inputs of the merge (the Tunable circuit is persisted as its mode
/// circuits + merge assignment and rebuilt through the `TunableCircuit`
/// constructor). Everything else is re-derived on load through the
/// functions the flow itself uses: each mode's netlist, mapping and MDR
/// route spec through `mdr_impl`, the DCS route spec through
/// `dcs_route_spec_from`, and the connection counts from the Tunable
/// circuit; route problems are `SiteRouteSpec::instantiate` of the specs
/// against the region's RRG. A stored placement that does not fit its
/// derived netlist makes the entry invalid. A warm process therefore
/// reproduces a cold process's QoR bit-identically — asserted by
/// tests/test_artifact_store.cpp and the CI persistent-cache smoke job.
///
/// ## Thread-safety
///
/// Loads read immutable committed files and take no lock. Saves serialize
/// through one commit mutex per store (the BatchDriver's workers share one
/// store; commits must not interleave tmp-file counters) and are atomic at
/// the filesystem level, so concurrent writers — threads or processes —
/// land whole entries, last writer wins with identical bytes.

#include <cstdint>
#include <filesystem>
#include <mutex>
#include <optional>
#include <vector>

#include "core/flows.h"

namespace mmflow::core {

class ArtifactStore {
 public:
  /// Bumped on any change to the header layout; readers reject other
  /// versions as invalid (a clean miss).
  static constexpr std::uint32_t kFormatVersion = 1;

  /// Hash of the payload field layout (see kSchemaDescription in the .cpp);
  /// entries written under a different schema are invalid (a clean miss).
  [[nodiscard]] static std::uint64_t schema_hash();

  /// Opens (and best-effort creates) the store rooted at `root`. Never
  /// throws on an unusable directory: reads then miss and writes fail
  /// gracefully — a flow with a broken cache dir still completes.
  explicit ArtifactStore(std::filesystem::path root);

  // Each load returns the artifact, or nullopt on a miss (absent file) or an
  // invalid entry (see the failure contract above). Each save returns
  // whether the entry was committed. `save_experiment` requires a Tunable
  // circuit (the flow always builds one).
  [[nodiscard]] std::optional<MultiModeExperiment> load_experiment(
      const FlowKey& key) const;
  bool save_experiment(const FlowKey& key,
                       const MultiModeExperiment& experiment);

  /// The engine-independent MDR placements, one per mode.
  [[nodiscard]] std::optional<std::vector<place::Placement>> load_mdr(
      const FlowKey& key) const;
  bool save_mdr(const FlowKey& key,
                const std::vector<place::Placement>& mdr);

  [[nodiscard]] std::optional<bool> load_probe(const FlowKey& key) const;
  bool save_probe(const FlowKey& key, const bool& routable);

  /// The final-width MDR routings, one per mode.
  [[nodiscard]] std::optional<std::vector<route::RouteResult>> load_mdr_routes(
      const FlowKey& key) const;
  bool save_mdr_routes(const FlowKey& key,
                       const std::vector<route::RouteResult>& routes);

  /// Committed entry files across all four kinds (diagnostics; walks the
  /// directory).
  [[nodiscard]] std::size_t size() const;

 private:
  // The one framed load/commit path; the per-type payload codecs live in
  // the .cpp.
  template <typename T>
  [[nodiscard]] std::optional<T> load(const FlowKey& key) const;
  template <typename T>
  bool save(const FlowKey& key, const T& value);

  std::filesystem::path root_;
  mutable std::mutex commit_mutex_;  ///< serializes writes (tmp names, rename)
  std::uint64_t tmp_counter_ = 0;    ///< guarded by commit_mutex_
};

}  // namespace mmflow::core
