/// \file flow_bench.cpp
/// Workload-level benchmark of the multi-mode flows: real suite pairs run
/// through `core::run_experiment_shared` (or `core::BatchDriver`) and are
/// scored with `core::reconfig_metrics` / `core::wirelength_metrics`, the
/// way the paper's Figs. 5 and 7 sweep them. Every experiment is then
/// checked with `verify::check_modes`, outside the timed region.
///
///   flow_bench --workload NAME --seed N --seconds S --trace 0|1
///              [--scratch DIR]
///
/// Workloads (the suites' first pairs at suite seed 1):
///   edgematch-suite   regexp, fir, mcnc x 1 pair, EdgeMatch, one job
///   wirelength-suite  regexp, fir, mcnc x 2 pairs, WireLength, one job
///   batch-store       mcnc x 1 pair, engine_sweep x 4 seeds = 8 jobs on
///                     min(4, nproc) BatchDriver workers with an on-disk
///                     ArtifactStore; a cold pass, then a warm pass in a
///                     fresh driver that must replay it bit for bit
///
/// Sweep wall and CPU time are gated in units of a reference kernel, fixed
/// code of the benchmark's own timed before and after the experiments of
/// every sweep, outside its timed region (see `reference_work`).
///
/// A run builds the workload's inputs 21 times, then repeats the whole
/// workload ("a sweep", with fresh caches) until at least 3 sweeps have
/// run and `--seconds` have passed. It reports the mean (batch-store: the
/// median) of the gated sweep times over the sweeps, and the median of the
/// others; `--seconds 0` runs exactly one sweep. After each untraced sweep
/// it builds the inputs 5 more times; `setup_s` is the fastest of all
/// these set-ups. Sweep j of a run with `--seed s` runs at flow seed
/// 1000 * s + j. With `--trace 1` the one-job workloads alternate untraced
/// and traced sweeps on the same flow seed; a traced sweep takes
/// per-experiment deltas of the `perf::Registry` stage timers and counters.
/// batch-store's deltas are process totals either way, so it takes them
/// from its untraced sweeps and runs nothing twice. Afterwards the harness
/// replays the width search, the merge and the MDR placements of the first
/// sampled sweep through their public entry points, to split probes by
/// verdict and side. The replays must reproduce the flow's own results, and
/// a traced sweep its untraced twin.
///
/// The last stdout line is one JSON object
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
/// with the end-to-end metrics (untraced) or the per-layer metrics
/// (traced). The exit status is non-zero when any experiment threw, failed
/// `check_modes`, or replayed differently.
///
/// Every flow option is fixed by the workload (anneal `inner_num` 1, one
/// routing job, timing tradeoff 0, no fault injection); the environment
/// sets only MMFLOW_JOBS (batch-store workers, default min(4, nproc)) and
/// MMFLOW_BENCH_JSON (per-experiment rows report, default flow_bench.json
/// in the scratch directory).

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <queue>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "arch/rrg.h"
#include "bench_common.h"
#include "place/placenet.h"
#include "place/placer.h"
#include "verify/verify.h"

namespace mmflow::flowbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

/// Anneal effort of every workload. The paper-grade value is 10 and the
/// figure benches default to 5; at 1 a sweep takes 10-15 s on a 4-core
/// x86 box, so a run measures several sweeps (each at its own flow seed)
/// and reports their median. Lower efforts do not run faster: the worse
/// placements make the width search dearer.
constexpr double kInnerNum = 1.0;
/// Set-ups (suite synthesis + techmap + store directory) before the timed
/// region, and again after each untraced sweep. A set-up is 40-110 ms of
/// deterministic work, and a shared host switches between a fast and a slow
/// state (about 45 vs 65 ms on batch-store), in CPU time as in wall time, for
/// stretches that can outlast 41 back-to-back set-ups. So the set-ups are
/// spread over the run and the fastest is reported.
constexpr int kSetupReps = 21;
constexpr int kSetupRepsPerSweep = 5;
/// Untraced sweeps per untraced run, at least; each at its own flow seed.
/// A one-job sweep runs each pair at one flow seed and a batch sweep at
/// four. Over ten seeds, the mean of four edgematch-suite sweeps spread no
/// less than the mean of three (0.115 against 0.10), and a run took 20 s
/// longer.
constexpr std::size_t kMinSweeps = 3;
/// Seeds per engine in the batch-store workload.
constexpr std::uint64_t kBatchSeeds = 4;
/// Sweep j of a run with `--seed s` uses flow seed s * kSeedStride + j, so
/// runs with different seeds never share a flow seed.
constexpr std::uint64_t kSeedStride = 1000;
/// Suite generation seed: the workloads are defined on the suites' first
/// pairs at seed 1 (re0+re1, fir0, clone10+clone11, ...); `--seed` is the
/// flow seed every placement and routing decision derives from.
constexpr std::uint64_t kSuiteSeed = 1;
/// Minimum share of each experiment's wall time the traced stages must
/// account for on the one-job workloads.
constexpr double kMinCoverage = 0.95;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Process user + system CPU seconds.
double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

/// Peak resident set of the process so far in MiB (Linux reports KiB).
double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ---- reference kernel -------------------------------------------------------

/// Nodes and out-edges of the reference kernel's graph.
constexpr std::uint32_t kRefNodes = 1U << 16;
constexpr std::uint32_t kRefDegree = 4;
/// Kernel runs per reference sample; the sample is their median.
constexpr int kRefReps = 3;

/// Fixed work of the benchmark's own, unrelated to mmflow's code: shortest
/// paths from four sources over a random graph with a binary heap, the
/// access pattern of the router's inner loop on a 3 MB working set. A shared
/// host drifts between fast and slow states for minutes at a time (a whole
/// run can be 40-60% slower than the runs around it), and the drift slows
/// this kernel as it slows the flow. So the gated times are taken in units
/// of it, sampled through every sweep. A change to mmflow cannot move the
/// kernel. Returns a checksum of the distances.
std::uint64_t reference_work() {
  std::vector<std::uint32_t> target(kRefNodes * kRefDegree);
  std::vector<std::uint32_t> weight(target.size());
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  for (std::size_t e = 0; e < target.size(); ++e) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    target[e] = static_cast<std::uint32_t>(state >> 33) % kRefNodes;
    weight[e] = 1 + static_cast<std::uint32_t>(state >> 58);
  }
  using Item = std::pair<std::uint64_t, std::uint32_t>;
  std::vector<std::uint64_t> dist(kRefNodes);
  std::uint64_t checksum = 0;
  for (std::uint32_t source = 0; source < 4; ++source) {
    std::fill(dist.begin(), dist.end(),
              std::numeric_limits<std::uint64_t>::max());
    std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
    dist[source * 7919] = 0;
    heap.emplace(0, source * 7919);
    while (!heap.empty()) {
      const auto [d, node] = heap.top();
      heap.pop();
      if (d != dist[node]) continue;
      for (std::uint32_t k = 0; k < kRefDegree; ++k) {
        const std::size_t e = static_cast<std::size_t>(node) * kRefDegree + k;
        const std::uint64_t next = d + weight[e];
        if (next < dist[target[e]]) {
          dist[target[e]] = next;
          heap.emplace(next, target[e]);
        }
      }
    }
    for (const auto d : dist) checksum = checksum * 31 + d;
  }
  return checksum;
}

/// One reference sample: the kernel run on `threads` threads at once (the
/// parallelism of the work it stands beside), kRefReps times.
struct Reference {
  double wall_s = 0.0;  ///< median wall time of one run
  double cpu_s = 0.0;   ///< median CPU time of one run, per thread
};

/// Takes one reference sample. Throws if a run's checksum differs from the
/// first run's.
Reference reference_sample(int threads) {
  static const std::uint64_t expected = reference_work();
  std::vector<double> wall;
  std::vector<double> cpu;
  for (int rep = 0; rep < kRefReps; ++rep) {
    std::vector<std::uint64_t> sums(static_cast<std::size_t>(threads));
    const double cpu_before = cpu_seconds();
    const auto start = Clock::now();
    {
      std::vector<std::jthread> pool;
      for (int t = 1; t < threads; ++t) {
        pool.emplace_back([&sums, t] {
          sums[static_cast<std::size_t>(t)] = reference_work();
        });
      }
      sums[0] = reference_work();
    }
    wall.push_back(seconds_since(start));
    cpu.push_back((cpu_seconds() - cpu_before) / threads);
    for (const auto sum : sums) {
      if (sum != expected) throw std::runtime_error("reference kernel drifted");
    }
  }
  return {median(wall), median(cpu)};
}

/// `seconds` of a timed segment in units of the reference kernel, taken as
/// the mean of the samples just before and just after the segment.
double in_ref_units(double seconds, double before, double after) {
  return seconds * 2.0 / (before + after);
}

/// Median wall and CPU time over a sweep's reference samples.
Reference median_reference(const std::vector<Reference>& samples) {
  std::vector<double> wall;
  std::vector<double> cpu;
  for (const auto& sample : samples) {
    wall.push_back(sample.wall_s);
    cpu.push_back(sample.cpu_s);
  }
  return {median(wall), median(cpu)};
}

// ---- perf::Registry deltas --------------------------------------------------

/// Registry counters and timer totals at one instant, by name.
struct Snapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::uint64_t> timer_ns;
};

Snapshot snapshot() {
  const auto& registry = perf::Registry::instance();
  Snapshot out;
  for (const auto& [name, value] : registry.counters()) {
    out.counters.emplace(name, value);
  }
  for (const auto& [name, stat] : registry.timers()) {
    out.timer_ns.emplace(name, stat.total_ns);
  }
  return out;
}

/// Difference of two snapshots (later minus earlier); sums across
/// experiments with `+=`.
struct Delta {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::uint64_t> timer_ns;

  static Delta between(const Snapshot& before, const Snapshot& after) {
    Delta out;
    auto diff = [](const auto& b, const auto& a, auto& into) {
      for (const auto& [name, value] : a) {
        const auto it = b.find(name);
        into[name] = value - (it == b.end() ? 0 : it->second);
      }
    };
    diff(before.counters, after.counters, out.counters);
    diff(before.timer_ns, after.timer_ns, out.timer_ns);
    return out;
  }

  Delta& operator+=(const Delta& other) {
    for (const auto& [name, value] : other.counters) counters[name] += value;
    for (const auto& [name, value] : other.timer_ns) timer_ns[name] += value;
    return *this;
  }

  [[nodiscard]] double count(const std::string& name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : static_cast<double>(it->second);
  }
  [[nodiscard]] double secs(const std::string& name) const {
    const auto it = timer_ns.find(name);
    return it == timer_ns.end() ? 0.0 : static_cast<double>(it->second) * 1e-9;
  }
};

/// The flow's own stage timers; together they cover `run_experiment`
/// except merge extraction, Tunable construction and cache lookups.
const std::vector<std::string>& stage_timers() {
  static const std::vector<std::string> names = {
      "flow.mdr_place", "combined_place.total", "flow.tplace",
      "flow.width_search", "flow.final_route"};
  return names;
}

/// Exact work counters: a pure function of the seed at one job.
const std::vector<std::string>& work_counters() {
  static const std::vector<std::string> names = {
      "combined_place.moves_proposed", "combined_place.site_evals",
      "place.moves_proposed", "route.heap_pops", "route.width_probes"};
  return names;
}

// ---- workloads --------------------------------------------------------------

struct SuitePart {
  const char* suite;
  int pairs;
};

struct Workload {
  std::string name;
  std::vector<SuitePart> parts;
  core::CombinedCost engine = core::CombinedCost::WireLength;
  bool batch_store = false;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table = {
      {"edgematch-suite",
       {{"regexp", 1}, {"fir", 1}, {"mcnc", 1}},
       core::CombinedCost::EdgeMatch,
       false},
      {"wirelength-suite",
       {{"regexp", 2}, {"fir", 2}, {"mcnc", 2}},
       core::CombinedCost::WireLength,
       false},
      {"batch-store", {{"mcnc", 1}}, core::CombinedCost::WireLength, true},
  };
  return table;
}

/// One experiment of a sweep: a multi-mode circuit under one configuration.
struct Case {
  std::string name;
  std::shared_ptr<const std::vector<techmap::LutCircuit>> modes;
  core::FlowOptions options;
  std::uint64_t seed_offset = 0;  ///< batch-store: which of the job seeds
};

/// The workload's inputs: the suite circuits and one case per experiment,
/// flow seeds still unset.
struct Inputs {
  std::vector<Case> cases;
  std::size_t luts = 0;  ///< total LUTs over the distinct mode circuits
  std::uint64_t seeds_per_sweep = 1;
};

/// The flow options every experiment of a workload starts from. The route
/// jobs and timing tradeoff are part of the workloads' definition, so they
/// are pinned here even where they equal `FlowOptions`' defaults.
core::FlowOptions base_options(const Workload& workload) {
  core::FlowOptions options;
  options.cost_engine = workload.engine;
  options.anneal.inner_num = kInnerNum;
  options.timing_tradeoff = 0.0;
  options.route_jobs = 1;
  return options;
}

Inputs build_inputs(const Workload& workload) {
  Inputs inputs;
  inputs.seeds_per_sweep = workload.batch_store ? kBatchSeeds : 1;
  for (const auto& part : workload.parts) {
    apps::SuiteOptions suite_options;
    suite_options.seed = kSuiteSeed;
    suite_options.limit_pairs = part.pairs;
    auto suite = apps::suite_by_name(part.suite, suite_options);
    std::vector<std::string> seen;
    for (auto& bench : suite) {
      for (const auto& mode : bench.modes) {
        if (std::find(seen.begin(), seen.end(), mode.name()) == seen.end()) {
          seen.push_back(mode.name());
          inputs.luts += mode.num_blocks();
        }
      }
      auto modes = std::make_shared<const std::vector<techmap::LutCircuit>>(
          std::move(bench.modes));
      const core::FlowOptions base = base_options(workload);
      if (!workload.batch_store) {
        inputs.cases.push_back({bench.name, modes, base, 0});
        continue;
      }
      for (std::uint64_t s = 0; s < kBatchSeeds; ++s) {
        for (auto& job : core::engine_sweep(bench.name, modes, base)) {
          inputs.cases.push_back({job.name, job.modes, job.options, s});
        }
      }
    }
  }
  return inputs;
}

/// The cases of one sweep: every case at the sweep's flow seed(s).
std::vector<Case> seeded(const Inputs& inputs, std::uint64_t sweep_seed) {
  std::vector<Case> out = inputs.cases;
  for (auto& c : out) {
    c.options.seed = sweep_seed * inputs.seeds_per_sweep + c.seed_offset;
    c.name += "/seed" + std::to_string(c.options.seed);
  }
  return out;
}

// ---- sweeps -----------------------------------------------------------------

/// One experiment's result as its caller sees it.
struct Outcome {
  std::shared_ptr<const core::MultiModeExperiment> exp;
  std::string error;  ///< non-empty iff the flow threw
  double wall_s = 0.0;
  double metrics_s = 0.0;
  int min_width = 0;
  core::ReconfigMetrics reconfig;
  core::WirelengthMetrics wirelength;
  Delta delta;  ///< registry delta of this experiment (traced, one job)
};

/// QoR identity of one experiment: every number the correctness checks
/// compare, in a fixed order.
std::string fingerprint(const std::string& name, const Outcome& outcome) {
  if (outcome.exp == nullptr) return name + " error";
  const auto& exp = *outcome.exp;
  std::ostringstream os;
  os << name << " min_width=" << exp.min_width
     << " width=" << exp.region.channel_width
     << " mdr_bits=" << outcome.reconfig.mdr_bits
     << " dcs_bits=" << outcome.reconfig.dcs_bits
     << " merged=" << exp.merged_connections << '/'
     << exp.total_mode_connections << " wl_mdr=";
  for (const auto wl : outcome.wirelength.mdr) os << wl << ',';
  os << " wl_dcs=";
  for (const auto wl : outcome.wirelength.dcs) os << wl << ',';
  return os.str();
}

void measure_metrics(Outcome& outcome) {
  const auto start = Clock::now();
  outcome.reconfig =
      core::reconfig_metrics(*outcome.exp, bitstream::MuxEncoding::Binary);
  outcome.wirelength = core::wirelength_metrics(*outcome.exp);
  outcome.metrics_s = seconds_since(start);
  outcome.min_width = outcome.exp->min_width;
}

struct Sweep {
  std::vector<Case> cases;
  double wall_s = 0.0;   ///< the timed region
  double cpu_s = 0.0;
  /// Reference-kernel samples are taken between the timed segments of a
  /// sweep (before each experiment and after the last, or around the batch
  /// passes), on as many threads as the sweep runs. Each segment's wall
  /// and CPU time is divided by the mean of the samples on either side of
  /// it; these are the sums.
  double wall_ref = 0.0;
  double cpu_ref = 0.0;
  Reference ref;  ///< medians of the samples
  double busy_s = 0.0;   ///< sum of experiment wall times
  double phase_s = 0.0;  ///< wall time of the experiment phase
  int workers = 1;
  std::vector<Outcome> outcomes;
  std::vector<std::string> fingerprints;
  Delta delta;  ///< whole experiment phase (process totals)
  // batch-store only
  double replay_s = 0.0;
  double replay_hits = 0.0;
  double store_writes = 0.0;
  double store_bytes = 0.0;
  std::vector<bool> replay_differs;  ///< per job: warm != cold
  bool replay_missed = false;  ///< the warm pass recomputed some job
  // filled by verify_sweep
  std::vector<bool> bad;  ///< per experiment: threw or failed a check
  double verify_s = 0.0;
  Delta verify_delta;
};

/// One-job workloads: every experiment in order, fresh in-process caches.
Sweep run_serial_sweep(const std::vector<Case>& cases, bool traced) {
  core::FlowCache cache;
  core::RrgCache rrgs;
  const core::FlowContext context{&cache, &rrgs};
  Sweep sweep;
  sweep.cases = cases;
  std::vector<Reference> ref = {reference_sample(1)};
  const Snapshot sweep_before = snapshot();
  // The timed region is the experiments and their metrics; the reference
  // samples between them are left out of it.
  for (const auto& c : cases) {
    Outcome outcome;
    Snapshot before;
    if (traced) before = snapshot();
    const double cpu_before = cpu_seconds();
    const auto t0 = Clock::now();
    try {
      outcome.exp = core::run_experiment_shared(*c.modes, c.options, context);
    } catch (const std::exception& e) {
      outcome.error = e.what();
    }
    outcome.wall_s = seconds_since(t0);
    if (traced) outcome.delta = Delta::between(before, snapshot());
    if (outcome.exp != nullptr) measure_metrics(outcome);
    const double wall_s = seconds_since(t0);
    const double cpu_s = cpu_seconds() - cpu_before;
    sweep.outcomes.push_back(std::move(outcome));
    ref.push_back(reference_sample(1));
    const Reference& before_ref = ref[ref.size() - 2];
    sweep.wall_s += wall_s;
    sweep.cpu_s += cpu_s;
    sweep.wall_ref +=
        in_ref_units(wall_s, before_ref.wall_s, ref.back().wall_s);
    sweep.cpu_ref += in_ref_units(cpu_s, before_ref.cpu_s, ref.back().cpu_s);
  }
  sweep.ref = median_reference(ref);
  sweep.delta = Delta::between(sweep_before, snapshot());
  sweep.phase_s = sweep.wall_s;
  for (const auto& outcome : sweep.outcomes) sweep.busy_s += outcome.wall_s;
  return sweep;
}

std::vector<core::BatchJob> batch_jobs(const std::vector<Case>& cases) {
  std::vector<core::BatchJob> jobs;
  for (const auto& c : cases) jobs.push_back({c.name, c.modes, c.options});
  return jobs;
}

double directory_bytes(const fs::path& dir) {
  double bytes = 0.0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      bytes += static_cast<double>(entry.file_size());
    }
  }
  return bytes;
}

/// batch-store: a cold pass into an empty store, then a warm pass in a
/// fresh driver that must replay every job from disk. Both passes and the
/// cold results' metrics are timed; comparing the passes is not.
Sweep run_batch_sweep(const std::vector<Case>& cases, int workers,
                      const fs::path& store_dir) {
  fs::remove_all(store_dir);
  const auto jobs = batch_jobs(cases);
  core::BatchOptions options;
  options.jobs = workers;
  options.cache_dir = store_dir.string();
  Sweep sweep;
  sweep.cases = cases;
  sweep.workers = workers;

  // Reference samples before, between and after the passes, on as many
  // threads as there are workers; the timed region leaves them out.
  std::vector<Reference> ref = {reference_sample(workers)};
  const Snapshot before = snapshot();
  const double cpu_before = cpu_seconds();
  const auto start = Clock::now();
  std::vector<core::BatchResult> cold;
  {
    core::BatchDriver driver(options);
    cold = driver.run(jobs);
  }
  sweep.phase_s = seconds_since(start);
  for (const auto& result : cold) {
    Outcome outcome;
    outcome.exp = result.experiment;
    outcome.error = result.experiment == nullptr
                        ? (result.error.empty() ? "job failed" : result.error)
                        : "";
    outcome.wall_s = result.wall_ms * 1e-3;
    if (outcome.exp != nullptr) measure_metrics(outcome);
    sweep.outcomes.push_back(std::move(outcome));
  }
  const double cold_s = seconds_since(start);
  const double cold_cpu_s = cpu_seconds() - cpu_before;
  const Snapshot mid = snapshot();
  ref.push_back(reference_sample(workers));
  const double warm_cpu_before = cpu_seconds();
  const auto warm_start = Clock::now();
  std::vector<core::BatchResult> warm;
  {
    core::BatchDriver driver(options);
    warm = driver.run(jobs);
  }
  sweep.replay_s = seconds_since(warm_start);
  const double warm_cpu_s = cpu_seconds() - warm_cpu_before;
  sweep.wall_s = cold_s + sweep.replay_s;
  sweep.cpu_s = cold_cpu_s + warm_cpu_s;
  const Snapshot after = snapshot();
  ref.push_back(reference_sample(workers));
  sweep.wall_ref = in_ref_units(cold_s, ref[0].wall_s, ref[1].wall_s) +
                   in_ref_units(sweep.replay_s, ref[1].wall_s, ref[2].wall_s);
  sweep.cpu_ref = in_ref_units(cold_cpu_s, ref[0].cpu_s, ref[1].cpu_s) +
                  in_ref_units(warm_cpu_s, ref[1].cpu_s, ref[2].cpu_s);
  sweep.ref = median_reference(ref);

  sweep.delta = Delta::between(before, mid);
  const Delta warm_delta = Delta::between(mid, after);
  sweep.replay_hits = warm_delta.count("flowcache.disk_hits");
  // A store that wrote nothing would still pass the fingerprint comparison:
  // the flow is deterministic, so the warm driver recomputes the same jobs.
  sweep.replay_missed =
      sweep.replay_hits < static_cast<double>(jobs.size());
  sweep.store_writes = sweep.delta.count("flowcache.disk_writes");
  sweep.store_bytes = directory_bytes(store_dir);
  for (const auto& outcome : sweep.outcomes) sweep.busy_s += outcome.wall_s;
  for (std::size_t i = 0; i < warm.size(); ++i) {
    Outcome replayed;
    replayed.exp = warm[i].experiment;
    if (replayed.exp != nullptr) measure_metrics(replayed);
    sweep.replay_differs.push_back(
        fingerprint(cases[i].name, replayed) !=
        fingerprint(cases[i].name, sweep.outcomes[i]));
  }
  fs::remove_all(store_dir);
  return sweep;
}

// ---- replays through the public layer entry points (traced runs) ------------

struct ProbeReplay {
  int min_width = 0;
  double probes = 0.0;
  double failed = 0.0;
  double fail_iterations = 0.0;
  double pass_s = 0.0;
  double fail_s = 0.0;
  double mdr_s = 0.0;
  double dcs_s = 0.0;
  double rrg_s = 0.0;
};

/// Re-runs the experiment's width search over its own route specs, one
/// `route::route` call per probe, timing each probe by verdict and side.
ProbeReplay replay_width_search(const core::MultiModeExperiment& exp,
                                const core::FlowOptions& options) {
  route::RouterOptions router = options.router;
  router.jobs = options.route_jobs;
  ProbeReplay replay;
  auto probe = [&](const arch::RoutingGraph& rrg,
                   const core::SiteRouteSpec& spec, double* side_s) {
    const auto start = Clock::now();
    const auto result = route::route(rrg, spec.instantiate(rrg), router);
    const double secs = seconds_since(start);
    replay.probes += 1.0;
    *side_s += secs;
    if (result.success) {
      replay.pass_s += secs;
    } else {
      replay.failed += 1.0;
      replay.fail_s += secs;
      replay.fail_iterations += result.iterations;
    }
    return result.success;
  };
  auto routable_at = [&](int width) {
    arch::ArchSpec spec = exp.region;
    spec.channel_width = width;
    const auto start = Clock::now();
    const arch::RoutingGraph rrg(spec);
    replay.rrg_s += seconds_since(start);
    for (const auto& impl : exp.mdr) {
      if (!probe(rrg, impl.route_spec, &replay.mdr_s)) return false;
    }
    return probe(rrg, exp.dcs_route_spec, &replay.dcs_s);
  };
  replay.min_width =
      route::search_min_width(routable_at, options.max_channel_width);
  return replay;
}

/// Rebuilds the Tunable circuit from the experiment's merge assignment.
/// Returns the construction time; `*same` reports whether the rebuilt
/// circuit has the flow's connection counts.
double replay_merge(const core::MultiModeExperiment& exp,
                    const std::vector<techmap::LutCircuit>& modes, bool* same) {
  const auto& tc = *exp.tunable;
  tunable::MergeAssignment assignment;
  assignment.num_tluts = static_cast<std::uint32_t>(tc.num_tluts());
  assignment.num_tios = static_cast<std::uint32_t>(tc.num_tios());
  for (const auto& mode : modes) {
    assignment.lut_to_tlut.emplace_back(mode.num_blocks(), 0);
    assignment.pi_to_tio.emplace_back(mode.num_pis(), 0);
    assignment.po_to_tio.emplace_back(mode.num_pos(), 0);
  }
  for (std::uint32_t t = 0; t < tc.num_tluts(); ++t) {
    const auto& slots = tc.tlut(t);
    for (std::size_t m = 0; m < slots.size(); ++m) {
      if (slots[m].lut >= 0) {
        assignment.lut_to_tlut[m][static_cast<std::size_t>(slots[m].lut)] = t;
      }
    }
  }
  for (std::uint32_t t = 0; t < tc.num_tios(); ++t) {
    const auto& slots = tc.tio(t);
    for (std::size_t m = 0; m < slots.size(); ++m) {
      if (slots[m].kind == tunable::TIoSlot::Kind::Pi) {
        assignment.pi_to_tio[m][slots[m].index] = t;
      } else if (slots[m].kind == tunable::TIoSlot::Kind::Po) {
        assignment.po_to_tio[m][slots[m].index] = t;
      }
    }
  }
  const auto start = Clock::now();
  const tunable::TunableCircuit rebuilt(modes, assignment);
  const double secs = seconds_since(start);
  *same = rebuilt.conns().size() == tc.conns().size() &&
          rebuilt.num_merged_connections() == exp.merged_connections &&
          rebuilt.total_mode_connections() == exp.total_mode_connections;
  return secs;
}

/// Re-runs the MDR placements with the flow's per-mode seeds (the
/// derivation in core/flows.cpp; if it changes, this replay reports a
/// mismatch rather than a wrong count). Returns the moves proposed;
/// `*same` reports whether every block landed where the flow put it.
double replay_mdr_moves(const core::MultiModeExperiment& exp,
                        const std::vector<techmap::LutCircuit>& modes,
                        const core::FlowOptions& options, bool* same) {
  const arch::DeviceGrid grid(exp.region);
  double moves = 0.0;
  *same = exp.mdr.size() == modes.size();
  for (std::size_t m = 0; m < modes.size() && *same; ++m) {
    place::LutPlaceMapping mapping;
    const auto netlist = place::to_place_netlist(modes[m], &mapping);
    place::PlacerOptions popt;
    popt.seed = options.seed * 1000003u + static_cast<std::uint64_t>(m);
    popt.anneal = options.anneal;
    place::PlacerStats stats;
    const auto placement = place::place(netlist, grid, popt, &stats);
    moves += static_cast<double>(stats.moves_attempted);
    const auto& flow_placement = exp.mdr[m].placement;
    *same = placement.num_blocks() == flow_placement.num_blocks();
    for (std::uint32_t b = 0; *same && b < placement.num_blocks(); ++b) {
      *same = placement.site_of(b) == flow_placement.site_of(b);
    }
  }
  return moves;
}

/// Everything the traced run learns from replaying one sweep's experiments
/// through the public layer entry points.
struct Replays {
  ProbeReplay probes;
  double merge_s = 0.0;
  double mdr_moves = 0.0;
  double merged = 0.0;
  double mode_conns = 0.0;
  std::size_t mismatches = 0;  ///< replays that disagreed with the flow
};

Replays replay_sweep(const Sweep& sweep) {
  Replays out;
  // The MDR side is engine-independent and shared through the flow cache,
  // so it is replayed once per (circuit, seed), as the flow computes it.
  std::vector<std::pair<const void*, std::uint64_t>> mdr_done;
  for (std::size_t i = 0; i < sweep.cases.size(); ++i) {
    const Outcome& outcome = sweep.outcomes[i];
    if (outcome.exp == nullptr) continue;
    const Case& c = sweep.cases[i];
    const auto& exp = *outcome.exp;
    const ProbeReplay r = replay_width_search(exp, c.options);
    if (r.min_width != exp.min_width) {
      std::printf("FAIL %s: probe replay reached width %d, flow %d\n",
                  c.name.c_str(), r.min_width, exp.min_width);
      ++out.mismatches;
    }
    out.probes.probes += r.probes;
    out.probes.failed += r.failed;
    out.probes.fail_iterations += r.fail_iterations;
    out.probes.pass_s += r.pass_s;
    out.probes.fail_s += r.fail_s;
    out.probes.mdr_s += r.mdr_s;
    out.probes.dcs_s += r.dcs_s;
    out.probes.rrg_s += r.rrg_s;
    bool same_merge = false;
    out.merge_s += replay_merge(exp, *c.modes, &same_merge);
    bool same_mdr = true;
    const std::pair<const void*, std::uint64_t> mdr_key{c.modes.get(),
                                                        c.options.seed};
    if (std::find(mdr_done.begin(), mdr_done.end(), mdr_key) ==
        mdr_done.end()) {
      mdr_done.push_back(mdr_key);
      out.mdr_moves += replay_mdr_moves(exp, *c.modes, c.options, &same_mdr);
    }
    if (!same_merge || !same_mdr) {
      std::printf("FAIL %s: %s replay differs from the flow\n",
                  c.name.c_str(), same_merge ? "MDR placement" : "merge");
      ++out.mismatches;
    }
    out.merged += static_cast<double>(exp.merged_connections);
    out.mode_conns += static_cast<double>(exp.total_mode_connections);
  }
  return out;
}

/// Store layer of a one-job workload: the sweep's experiments written to a
/// fresh `ArtifactStore` and read back through its public API. Each loaded
/// experiment must reproduce the original's QoR fingerprint.
struct StoreReplay {
  double writes = 0.0;
  double bytes = 0.0;
  double replay_s = 0.0;
  double hits = 0.0;
  std::size_t mismatches = 0;
};

StoreReplay replay_store(const Sweep& sweep, const fs::path& dir) {
  fs::remove_all(dir);
  StoreReplay out;
  {
    core::ArtifactStore store(dir);
    std::vector<core::FlowKey> keys;
    for (std::size_t i = 0; i < sweep.cases.size(); ++i) {
      const Case& c = sweep.cases[i];
      keys.push_back(core::experiment_key(*c.modes, c.options));
      const auto& exp = sweep.outcomes[i].exp;
      if (exp != nullptr && store.save_experiment(keys.back(), *exp)) {
        out.writes += 1.0;
      }
    }
    out.bytes = directory_bytes(dir);
    for (std::size_t i = 0; i < sweep.cases.size(); ++i) {
      if (sweep.outcomes[i].exp == nullptr) continue;
      const auto start = Clock::now();
      auto loaded = store.load_experiment(keys[i]);
      out.replay_s += seconds_since(start);
      Outcome replayed;
      if (loaded.has_value()) {
        out.hits += 1.0;
        replayed.exp = std::make_shared<const core::MultiModeExperiment>(
            std::move(*loaded));
        measure_metrics(replayed);
      }
      if (fingerprint(sweep.cases[i].name, replayed) !=
          sweep.fingerprints[i]) {
        std::printf("FAIL %s: store replay differs from the flow\n",
                    sweep.cases[i].name.c_str());
        ++out.mismatches;
      }
    }
  }
  fs::remove_all(dir);
  return out;
}

// ---- reporting --------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

double median_of(const std::vector<Sweep>& sweeps,
                 double (*pick)(const Sweep&)) {
  std::vector<double> values;
  for (const auto& sweep : sweeps) values.push_back(pick(sweep));
  return values.empty() ? 0.0 : median(values);
}

double mean_of(const std::vector<Sweep>& sweeps,
               double (*pick)(const Sweep&)) {
  double sum = 0.0;
  for (const auto& sweep : sweeps) sum += pick(sweep);
  return sweeps.empty() ? 0.0 : sum / static_cast<double>(sweeps.size());
}

std::string json_number(double value) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << (std::isfinite(value) ? value : 0.0);
  return os.str();
}

void print_table(const char* title, const std::vector<Metric>& metrics) {
  std::printf("\n%s\n", title);
  for (const auto& m : metrics) {
    std::printf("  %-32s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

void print_result_line(bool correct, std::size_t attempted, std::size_t failed,
                       const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i == 0 ? "" : ", ") << '"' << metrics[i].name
       << "\": {\"value\": " << json_number(metrics[i].value)
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
  std::fflush(stdout);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  fs::path scratch = "flowbench-scratch";
};

int usage(const char* message) {
  std::fprintf(stderr,
               "error: %s\nusage: flow_bench --workload "
               "edgematch-suite|wirelength-suite|batch-store --seed N "
               "--seconds S --trace 0|1 [--scratch DIR]\n",
               message);
  return 2;
}

/// Proves every experiment of a sweep with `check_modes` (outside the
/// timed region) and marks the experiments that threw, failed the proof,
/// or (batch-store) replayed differently from the cold pass. When the warm
/// pass did not serve every job from the store, every job is marked.
void verify_sweep(Sweep& sweep) {
  sweep.bad.assign(sweep.cases.size(), false);
  const Snapshot before = snapshot();
  const auto start = Clock::now();
  for (std::size_t i = 0; i < sweep.cases.size(); ++i) {
    const Outcome& outcome = sweep.outcomes[i];
    const char* name = sweep.cases[i].name.c_str();
    if (outcome.exp == nullptr) {
      std::printf("FAIL %s: flow threw: %s\n", name, outcome.error.c_str());
      sweep.bad[i] = true;
      continue;
    }
    bool proven = false;
    try {
      proven = verify::check_modes(*outcome.exp->tunable,
                                   *sweep.cases[i].modes)
                   .all_proven();
    } catch (const std::exception& e) {
      std::printf("FAIL %s: check_modes threw: %s\n", name, e.what());
    }
    if (!proven) {
      std::printf("FAIL %s: check_modes did not prove every mode\n", name);
      sweep.bad[i] = true;
    }
    if (!sweep.replay_differs.empty() && sweep.replay_differs[i]) {
      std::printf("FAIL %s: warm replay differs from the cold pass\n", name);
      sweep.bad[i] = true;
    }
    if (sweep.replay_missed) {
      std::printf("FAIL %s: warm pass served %.0f of %zu jobs from the "
                  "store\n",
                  name, sweep.replay_hits, sweep.cases.size());
      sweep.bad[i] = true;
    }
  }
  sweep.verify_s = seconds_since(start);
  sweep.verify_delta = Delta::between(before, snapshot());
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

int run(const Args& args) {
  const Workload* workload = nullptr;
  for (const auto& w : workloads()) {
    if (w.name == args.workload) workload = &w;
  }
  if (workload == nullptr) return usage("unknown workload");

  const int hardware =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const int workers =
      workload->batch_store
          ? bench::env_int("MMFLOW_JOBS", std::min(4, hardware))
          : 1;
  std::printf("flow_bench %s seed=%llu seconds=%g trace=%d inner_num=%g "
              "workers=%d route_jobs=1\n",
              workload->name.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, kInnerNum, workers);

  // ---- setup: suite synthesis + techmap, store directory -------------------
  fs::create_directories(args.scratch);
  std::vector<double> setup_s;
  std::vector<double> build_s;
  const fs::path store_root = args.scratch / ("store-" + workload->name);
  auto time_setup = [&](int reps) {
    Inputs built;
    for (int rep = 0; rep < reps; ++rep) {
      const auto start = Clock::now();
      built = build_inputs(*workload);
      build_s.push_back(seconds_since(start));
      if (workload->batch_store) {
        fs::remove_all(store_root);
        fs::create_directories(store_root);
      }
      setup_s.push_back(seconds_since(start));
    }
    return built;
  };
  const Inputs inputs = time_setup(kSetupReps);
  std::printf("setup: %zu experiments per sweep, %zu LUTs\n",
              inputs.cases.size(), inputs.luts);

  // ---- timed sweeps, one flow seed each -------------------------------------
  auto run_sweep = [&](const std::vector<Case>& cases, bool traced) {
    return workload->batch_store
               ? run_batch_sweep(cases, workers, store_root / "sweep")
               : run_serial_sweep(cases, traced);
  };
  // Each sweep is checked as soon as its timed region ends, then drops its
  // experiments, so memory stays that of one sweep.
  std::size_t attempted = 0;
  std::size_t failed = 0;
  auto check = [&](Sweep& sweep) {
    for (std::size_t i = 0; i < sweep.cases.size(); ++i) {
      sweep.fingerprints.push_back(
          fingerprint(sweep.cases[i].name, sweep.outcomes[i]));
    }
    verify_sweep(sweep);
    for (std::size_t i = 0; i < sweep.cases.size(); ++i) {
      ++attempted;
      if (sweep.bad[i]) ++failed;
    }
  };
  auto release = [](Sweep& sweep) {
    for (auto& outcome : sweep.outcomes) outcome.exp.reset();
  };
  std::vector<Sweep> plain;
  std::vector<Sweep> traced;
  Replays replays;
  StoreReplay store;
  double peak_rss = 0.0;
  const auto measure_start = Clock::now();
  for (std::uint64_t j = 0; j < kSeedStride; ++j) {
    const auto cases = seeded(inputs, args.seed * kSeedStride + j);
    plain.push_back(run_sweep(cases, false));
    // Later sweeps repeat the same work at other seeds; reading the peak
    // after the first keeps allocator growth across repeats out of it.
    if (plain.size() == 1) peak_rss = peak_rss_mib();
    check(plain.back());
    // batch-store's registry deltas are process totals whether or not a
    // sweep is traced, so its per-layer rows come from the first untraced
    // sweep; nothing is run twice.
    if (args.trace && workload->batch_store && plain.size() == 1) {
      const Sweep& sweep = plain.back();
      replays = replay_sweep(sweep);
      failed += replays.mismatches;
      store = {sweep.store_writes, sweep.store_bytes, sweep.replay_s,
               sweep.replay_hits, 0};
    }
    release(plain.back());
    time_setup(kSetupRepsPerSweep);
    if (args.trace && !workload->batch_store) {
      traced.push_back(run_sweep(cases, true));
      Sweep& sweep = traced.back();
      check(sweep);
      for (std::size_t i = 0; i < cases.size(); ++i) {
        if (sweep.fingerprints[i] != plain.back().fingerprints[i]) {
          std::printf("FAIL %s: traced sweep differs from the untraced one\n",
                      cases[i].name.c_str());
          ++failed;
        }
      }
      if (traced.size() == 1) {
        replays = replay_sweep(sweep);
        failed += replays.mismatches;
        store = replay_store(sweep, args.scratch / "store-replay");
        failed += store.mismatches;
      }
      release(sweep);
    }
    // A traced run alternates two sweeps per seed and replays one of them,
    // so it settles for one pair once the time is up; `--seconds 0` asks
    // for exactly one sweep.
    if ((args.trace || args.seconds <= 0.0 ||
         plain.size() >= kMinSweeps) &&
        seconds_since(measure_start) >= args.seconds) {
      break;
    }
  }
  fs::remove_all(store_root);
  const double setup_min = *std::min_element(setup_s.begin(), setup_s.end());
  const double build_min = *std::min_element(build_s.begin(), build_s.end());
  std::printf("setup: fastest %.4f s, median %.4f s over %zu set-ups\n",
              setup_min, median(setup_s), setup_s.size());

  // ---- QoR fingerprints and exact work counters -----------------------------
  std::vector<double> speedups;
  std::vector<double> wl_ratios;
  std::vector<double> experiment_s;
  std::vector<double> experiment_max;
  std::vector<bench::JsonRow> rows;
  std::printf("\n");
  for (std::size_t s = 0; s < plain.size(); ++s) {
    const Sweep& sweep = plain[s];
    double slowest = 0.0;
    for (std::size_t i = 0; i < sweep.cases.size(); ++i) {
      const Outcome& outcome = sweep.outcomes[i];
      std::printf("qor %s\n", sweep.fingerprints[i].c_str());
      experiment_s.push_back(outcome.wall_s);
      slowest = std::max(slowest, outcome.wall_s);
      if (!outcome.error.empty()) continue;
      // How many sweeps fit in `--seconds` depends on the host's speed; the
      // QoR ratios take the first kMinSweeps, so they repeat exactly at a
      // fixed seed.
      if (s < kMinSweeps) {
        speedups.push_back(outcome.reconfig.dcs_speedup());
        wl_ratios.push_back(outcome.wirelength.mean_ratio());
      }
      rows.push_back(
          {sweep.cases[i].name,
           {{"min_width", static_cast<double>(outcome.min_width)},
            {"mdr_bits", static_cast<double>(outcome.reconfig.mdr_bits)},
            {"dcs_bits", static_cast<double>(outcome.reconfig.dcs_bits)},
            {"dcs_speedup", outcome.reconfig.dcs_speedup()},
            {"wl_ratio_mean", outcome.wirelength.mean_ratio()},
            {"wall_s", outcome.wall_s}}});
    }
    experiment_max.push_back(slowest);
    std::printf("sweep %s wall_s=%.3f cpu_s=%.3f ref_s=%.4f wall_ref=%.2f "
                "cpu_ref=%.2f\n",
                sweep.cases.front().name.c_str(), sweep.wall_s, sweep.cpu_s,
                sweep.ref.wall_s, sweep.wall_ref, sweep.cpu_ref);
    for (const auto& name : work_counters()) {
      std::printf("work %s %s=%.0f\n", sweep.cases.front().name.c_str(),
                  name.c_str(), sweep.delta.count(name));
    }
  }
  const int json_status = bench::write_rows_json(
      (args.scratch / "flow_bench").string(), rows);

  // ---- end-to-end metrics (untraced sweeps) ---------------------------------
  const double sweep_s =
      median_of(plain, [](const Sweep& s) { return s.wall_s; });
  const double cpu_s =
      median_of(plain, [](const Sweep& s) { return s.cpu_s; });
  const double ref_s =
      median_of(plain, [](const Sweep& s) { return s.ref.wall_s; });
  // Sweep wall and CPU time are gated in units of the reference kernel: in
  // seconds they drift with the shared host by more than any bound allows.
  // A one-job sweep's time is the sum of its experiments', and a flow seed
  // at which a pair routes in one track fewer adds failing probes to that
  // experiment (clone10+clone11 takes 7-9 s instead of 4-6 s); the mean
  // over sweeps averages these in, where the median jumps between them. A batch sweep lasts as long as its slowest job, which a hard seed
  // can make two to three times as long, so batch-store takes the median.
  auto center = [&](double (*pick)(const Sweep&)) {
    return workload->batch_store ? median_of(plain, pick)
                                 : mean_of(plain, pick);
  };
  // The result line carries the gated metrics. The per-experiment p50 and
  // max are order statistics of a few heterogeneous, heavy-tailed samples
  // (a hard seed takes two to three times as long), too unsteady from seed
  // to seed for a bound, and failed_frac is 0 in every run that passes;
  // the table prints them all.
  const std::vector<Metric> end_to_end = {
      {"sweep_ref", "ref",
       center([](const Sweep& s) { return s.wall_ref; })},
      {"setup_s", "s", setup_min},
      {"cpu_ref", "ref",
       center([](const Sweep& s) { return s.cpu_ref; })},
      {"peak_rss_mb", "MiB", peak_rss},
      {"dcs_speedup_geomean", "ratio", geomean(speedups)},
      {"wl_ratio_geomean", "ratio", geomean(wl_ratios)},
  };
  auto printed = end_to_end;
  printed.push_back({"sweep_s", "s", sweep_s});
  printed.push_back({"cpu_s", "s", cpu_s});
  printed.push_back({"ref_s", "s", ref_s});
  printed.push_back({"experiment_p50_s", "s", median(experiment_s)});
  printed.push_back({"experiment_max_s", "s", median(experiment_max)});
  printed.push_back({"failed_frac", "ratio",
                     ratio(static_cast<double>(failed),
                           static_cast<double>(attempted))});
  print_table("end-to-end", printed);
  std::printf("  (%s over %zu untraced sweeps of %zu experiments, other "
              "times medians; "
              "experiment_p50_s over all %zu experiments, experiment_max_s "
              "over each sweep's slowest)\n",
              workload->batch_store ? "sweep_ref, cpu_ref medians"
                                    : "sweep_ref, cpu_ref means",
              plain.size(), inputs.cases.size(), experiment_s.size());

  if (!args.trace) {
    const bool correct = failed == 0 && json_status == 0;
    print_result_line(correct, attempted, failed, end_to_end);
    return correct ? 0 : 1;
  }

  // ---- per-layer metrics (first sampled sweep + its replays) ----------------
  // The sampled sweeps are the traced ones, or batch-store's untraced ones.
  const std::vector<Sweep>& sampled = workload->batch_store ? plain : traced;
  const Sweep& t0 = sampled.front();
  Delta stages;  // experiment-attributed deltas (one job) or process totals
  for (const auto& outcome : t0.outcomes) stages += outcome.delta;
  if (workload->batch_store) stages = t0.delta;

  double coverage_min = 1.0;
  std::vector<double> uncovered_per_sweep;
  std::vector<double> overhead;  // stays empty on batch-store: nothing traced
  for (std::size_t s = 0; s < traced.size(); ++s) {
    overhead.push_back(ratio(traced[s].wall_s, plain[s].wall_s) - 1.0);
  }
  for (const Sweep& sweep : sampled) {
    double uncovered = 0.0;
    if (workload->batch_store) {
      double covered = 0.0;
      for (const auto& name : stage_timers()) covered += sweep.delta.secs(name);
      uncovered = std::max(0.0, sweep.busy_s - covered);
      coverage_min = std::min(coverage_min, ratio(covered, sweep.busy_s));
    } else {
      for (const auto& outcome : sweep.outcomes) {
        double covered = 0.0;
        for (const auto& name : stage_timers()) {
          covered += outcome.delta.secs(name);
        }
        uncovered += std::max(0.0, outcome.wall_s - covered);
        coverage_min =
            std::min(coverage_min, ratio(covered, outcome.wall_s));
      }
    }
    uncovered_per_sweep.push_back(uncovered);
  }
  if (!workload->batch_store && coverage_min < kMinCoverage) {
    std::printf("FAIL trace: stage spans cover %.4f of an experiment's wall "
                "time (need %.2f)\n",
                coverage_min, kMinCoverage);
    ++failed;
  }

  const ProbeReplay& probes = replays.probes;

  auto hit_ratio = [&](const std::string& cache) {
    const double hits = stages.count(cache + "hits");
    return ratio(hits, hits + stages.count(cache + "misses"));
  };
  const double cp_s = stages.secs("combined_place.total");
  const double cp_moves = stages.count("combined_place.moves_proposed");
  const double mdr_s = stages.secs("flow.mdr_place");
  const double heap_pops = stages.count("route.heap_pops");
  double metrics_s = 0.0;
  for (const auto& outcome : t0.outcomes) metrics_s += outcome.metrics_s;

  const std::vector<Metric> per_layer = {
      {"apps.build_s", "s", build_min},
      {"techmap.luts", "count", static_cast<double>(inputs.luts)},
      {"combined_place.s", "s", cp_s},
      {"combined_place.moves_proposed", "count", cp_moves},
      {"combined_place.site_evals", "count",
       stages.count("combined_place.site_evals")},
      {"combined_place.accept_ratio", "ratio",
       ratio(stages.count("combined_place.moves_accepted"), cp_moves)},
      {"combined_place.ns_per_move", "ns", ratio(cp_s * 1e9, cp_moves)},
      {"place.mdr_s", "s", mdr_s},
      {"place.mdr_moves", "count", replays.mdr_moves},
      {"place.moves_proposed", "count", stages.count("place.moves_proposed")},
      {"place.ns_per_move", "ns", ratio(mdr_s * 1e9, replays.mdr_moves)},
      {"tplace.s", "s", stages.secs("flow.tplace")},
      {"merge.s", "s", replays.merge_s},
      {"merge.merged_frac", "ratio",
       ratio(replays.merged, replays.mode_conns)},
      {"route.width_search_s", "s", stages.secs("flow.width_search")},
      {"route.width_probes", "count", stages.count("route.width_probes")},
      {"route.probes", "count", probes.probes},
      {"route.probes_failed", "count", probes.failed},
      {"route.probe_pass_s", "s", probes.pass_s},
      {"route.probe_fail_s", "s", probes.fail_s},
      {"route.probe_mdr_s", "s", probes.mdr_s},
      {"route.probe_dcs_s", "s", probes.dcs_s},
      {"route.fail_iterations", "count", probes.fail_iterations},
      {"route.heap_pops", "count", heap_pops},
      {"route.ns_per_heap_pop", "ns",
       ratio(stages.secs("route.total") * 1e9, heap_pops)},
      {"route.final_s", "s", stages.secs("flow.final_route")},
      {"rrg.build_s", "s", probes.rrg_s},
      {"rrgcache.hit_ratio", "ratio", hit_ratio("rrgcache.")},
      {"flowcache.mdr_hit_ratio", "ratio", hit_ratio("flowcache.mdr_")},
      {"flowcache.probe_hit_ratio", "ratio", hit_ratio("flowcache.probe_")},
      {"store.writes", "count", store.writes},
      {"store.bytes", "bytes", store.bytes},
      {"store.replay_s", "s", store.replay_s},
      {"store.replay_hits", "count", store.hits},
      {"batch.busy_s", "s", t0.busy_s},
      {"batch.utilization", "ratio",
       ratio(t0.busy_s, t0.workers * t0.phase_s)},
      {"batch.retries", "count", t0.delta.count("batch.retries")},
      {"bitstream.metrics_s", "s", metrics_s},
      {"verify.s", "s", t0.verify_s},
      {"verify.sat_calls", "count", t0.verify_delta.count("verify.sat_calls")},
      {"trace.overhead_frac", "ratio",
       overhead.empty() ? 0.0 : median(overhead)},
      {"trace.coverage_min", "ratio", coverage_min},
      {"trace.uncovered_s", "s", median(uncovered_per_sweep)},
  };
  print_table(workload->batch_store
                  ? "per-layer (registry deltas are process totals over the "
                    "concurrent cold pass)"
                  : "per-layer (registry deltas attributed per experiment)",
              per_layer);
  std::printf("  (first of %zu %s sweeps; probe, merge and MDR-placement "
              "rows%s are replays outside the timed region)\n",
              sampled.size(), workload->batch_store ? "untraced" : "traced",
              workload->batch_store ? "" : " and store rows");
  const bool correct = failed == 0 && json_status == 0;
  print_result_line(correct, attempted, failed, per_layer);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace mmflow::flowbench

int main(int argc, char** argv) {
  using mmflow::flowbench::Args;
  using mmflow::flowbench::usage;
  Args args;
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string_view flag = argv[i];
      if (i + 1 >= argc) return usage("missing value after a flag");
      const char* value = argv[++i];
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = mmflow::parse_u64(value, "--seed");
      } else if (flag == "--seconds") {
        args.seconds = mmflow::parse_double(value, "--seconds");
      } else if (flag == "--trace") {
        const int trace = mmflow::parse_int(value, "--trace");
        if (trace != 0 && trace != 1) return usage("--trace takes 0 or 1");
        args.trace = trace == 1;
      } else if (flag == "--scratch") {
        args.scratch = value;
      } else {
        return usage("unknown flag");
      }
    }
    if (!have_workload) return usage("--workload is required");
    return mmflow::flowbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
