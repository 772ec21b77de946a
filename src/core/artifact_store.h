#pragma once
/// \file artifact_store.h
/// On-disk, cross-process persistence layer under `core::FlowCache` — the
/// ROADMAP's "on-disk artifact store". Every in-memory cache granularity
/// (whole experiments, the engine-independent MDR bundle, per-width MDR
/// routability probes, final-width MDR routes) gets a content-addressed
/// file keyed by its `FlowKey` structural hashes, so a second process —
/// or a sharded batch on another machine sharing the directory — replays
/// a first process's work as cache hits with bit-identical QoR.
///
/// ## Store layout and entry format (docs/CACHING.md has the full spec)
///
/// ```
/// <root>/experiments/<key>.bin   MultiModeExperiment
/// <root>/mdr/<key>.bin           std::vector<ModeImpl>
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
/// Every payload either stores a computed artifact bit-for-bit (placement
/// sites, route specs, routed paths, region) or stores the exact inputs of
/// a deterministic reconstruction (the Tunable circuit is persisted as its
/// mode circuits + merge assignment and rebuilt through the
/// `TunableCircuit` constructor). What a consumer can derive is not stored
/// at all: route problems are `SiteRouteSpec::instantiate` of the stored
/// specs against the region's RRG. A warm process therefore reproduces a
/// cold process's QoR bit-identically — asserted by
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
  // whether the entry was committed.
  [[nodiscard]] std::optional<MultiModeExperiment> load_experiment(
      const FlowKey& key) const;
  bool save_experiment(const FlowKey& key,
                       const MultiModeExperiment& experiment);

  [[nodiscard]] std::optional<std::vector<ModeImpl>> load_mdr(
      const FlowKey& key) const;
  bool save_mdr(const FlowKey& key, const std::vector<ModeImpl>& mdr);

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
