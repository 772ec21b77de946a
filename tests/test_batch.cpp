/// Batch flow driver tests: the determinism contract (batched multi-seed
/// results bit-identical to sequential runs), cache-hit equivalence, the
/// cache hit/miss perf counters, and the flow cache's compute-once contract
/// (identical work on one worker and on four).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "aig/bridge.h"
#include "common/cancel.h"
#include "common/perf.h"
#include "core/batch.h"
#include "core/metrics.h"
#include "helpers.h"
#include "techmap/mapper.h"

namespace mmflow::core {
namespace {

/// Generates a pair of structurally similar mode circuits (like the paper's
/// mode pairs): a base random circuit plus a variant sharing most logic.
std::vector<techmap::LutCircuit> similar_mode_pair(int num_gates,
                                                   std::uint64_t seed) {
  Rng rng(seed);
  auto build = [&](bool variant, std::uint64_t vseed) {
    Rng vrng(vseed);
    netlist::Netlist nl(variant ? "modeB" : "modeA");
    std::vector<netlist::SignalId> pool;
    for (int i = 0; i < 6; ++i) {
      pool.push_back(nl.add_input("i" + std::to_string(i)));
    }
    Rng shared(seed * 7919);  // identical gate choices for the common prefix
    for (int g = 0; g < num_gates; ++g) {
      Rng& r = (g < num_gates * 3 / 4) ? shared : vrng;
      const auto a = pool[r.next_below(pool.size())];
      const auto b = pool[r.next_below(pool.size())];
      netlist::SignalId s = 0;
      switch (r.next_below(4)) {
        case 0: s = nl.add_and(a, b); break;
        case 1: s = nl.add_or(a, b); break;
        case 2: s = nl.add_xor(a, b); break;
        case 3: s = nl.add_nand(a, b); break;
      }
      pool.push_back(s);
    }
    for (int i = 0; i < 4; ++i) {
      nl.add_output("o" + std::to_string(i), pool[pool.size() - 1 - i]);
    }
    auto mapped = techmap::map_to_luts(aig::aig_from_netlist(nl));
    mapped.set_name(nl.name());
    return mapped;
  };
  std::vector<techmap::LutCircuit> modes;
  modes.push_back(build(false, rng()));
  modes.push_back(build(true, rng()));
  return modes;
}

FlowOptions fast_options(CombinedCost cost, std::uint64_t seed) {
  FlowOptions options;
  options.cost_engine = cost;
  options.seed = seed;
  options.anneal.inner_num = 2.0;  // keep tests quick
  return options;
}

void expect_same_routing(const route::RouteResult& a,
                         const route::RouteResult& b) {
  ASSERT_EQ(a.success, b.success);
  ASSERT_EQ(a.iterations, b.iterations);
  ASSERT_EQ(a.conns.size(), b.conns.size());
  for (std::size_t c = 0; c < a.conns.size(); ++c) {
    EXPECT_EQ(a.conns[c].net, b.conns[c].net);
    EXPECT_EQ(a.conns[c].conn, b.conns[c].conn);
    EXPECT_EQ(a.conns[c].modes, b.conns[c].modes);
    EXPECT_EQ(a.conns[c].nodes, b.conns[c].nodes);
    EXPECT_EQ(a.conns[c].edges, b.conns[c].edges);
  }
}

/// Bit-for-bit equality of everything QoR-relevant in two experiments:
/// region, width, every placement site, every routed path, the merge.
void expect_same_experiment(const MultiModeExperiment& a,
                            const MultiModeExperiment& b) {
  EXPECT_EQ(a.region.nx, b.region.nx);
  EXPECT_EQ(a.region.ny, b.region.ny);
  EXPECT_EQ(a.region.channel_width, b.region.channel_width);
  EXPECT_EQ(a.min_width, b.min_width);
  ASSERT_EQ(a.mdr.size(), b.mdr.size());
  for (std::size_t m = 0; m < a.mdr.size(); ++m) {
    ASSERT_EQ(a.mdr[m].placement.num_blocks(), b.mdr[m].placement.num_blocks());
    for (std::uint32_t blk = 0; blk < a.mdr[m].placement.num_blocks(); ++blk) {
      EXPECT_EQ(a.mdr[m].placement.site_of(blk), b.mdr[m].placement.site_of(blk))
          << "mode " << m << " block " << blk;
    }
  }
  ASSERT_EQ(a.mdr_routing.size(), b.mdr_routing.size());
  for (std::size_t m = 0; m < a.mdr_routing.size(); ++m) {
    expect_same_routing(a.mdr_routing[m], b.mdr_routing[m]);
  }
  expect_same_routing(a.dcs_routing, b.dcs_routing);
  EXPECT_EQ(a.tlut_site, b.tlut_site);
  EXPECT_EQ(a.tio_site, b.tio_site);
  EXPECT_EQ(a.total_mode_connections, b.total_mode_connections);
  EXPECT_EQ(a.merged_connections, b.merged_connections);

  const auto ma = reconfig_metrics(a, bitstream::MuxEncoding::Binary);
  const auto mb = reconfig_metrics(b, bitstream::MuxEncoding::Binary);
  EXPECT_EQ(ma.mdr_bits, mb.mdr_bits);
  EXPECT_EQ(ma.dcs_bits, mb.dcs_bits);
  EXPECT_EQ(ma.diff_bits, mb.diff_bits);
}

TEST(Batch, SeedSweepExpansion) {
  const auto modes = std::make_shared<const std::vector<techmap::LutCircuit>>(
      similar_mode_pair(40, 5));
  auto base = fast_options(CombinedCost::WireLength, 7);
  const auto jobs = seed_sweep("c", modes, base, 3);
  ASSERT_EQ(jobs.size(), 3u);
  EXPECT_EQ(jobs[0].options.seed, 7u);
  EXPECT_EQ(jobs[1].options.seed, 8u);
  EXPECT_EQ(jobs[2].options.seed, 9u);
  EXPECT_EQ(jobs[0].name, "c/seed7");
  EXPECT_EQ(jobs[2].name, "c/seed9");
  for (const auto& job : jobs) EXPECT_EQ(job.modes.get(), modes.get());

  const auto engines = engine_sweep("c", modes, base);
  ASSERT_EQ(engines.size(), 2u);
  EXPECT_EQ(engines[0].options.cost_engine, CombinedCost::EdgeMatch);
  EXPECT_EQ(engines[1].options.cost_engine, CombinedCost::WireLength);
}

/// The acceptance-criterion test: a parallel multi-seed batch produces
/// bit-identical per-seed results to N independent sequential runs.
TEST(Batch, MultiSeedBatchMatchesSequentialBitForBit) {
  const auto modes = similar_mode_pair(50, 21);
  const auto base = fast_options(CombinedCost::WireLength, 1);
  constexpr int kSeeds = 3;

  // Sequential reference: plain run_experiment, no caching, no threads.
  std::vector<MultiModeExperiment> reference;
  for (int s = 0; s < kSeeds; ++s) {
    auto options = base;
    options.seed = base.seed + static_cast<std::uint64_t>(s);
    reference.push_back(run_experiment(modes, options));
  }

  // Parallel batch with shared RRG + flow cache.
  BatchOptions batch_options;
  batch_options.jobs = kSeeds;
  BatchDriver driver(batch_options);
  const auto results = driver.run(seed_sweep(
      "c", std::make_shared<const std::vector<techmap::LutCircuit>>(modes),
      base, kSeeds));

  ASSERT_EQ(results.size(), static_cast<std::size_t>(kSeeds));
  for (int s = 0; s < kSeeds; ++s) {
    ASSERT_TRUE(results[static_cast<std::size_t>(s)].experiment != nullptr)
        << results[static_cast<std::size_t>(s)].error;
    EXPECT_EQ(results[static_cast<std::size_t>(s)].seed,
              base.seed + static_cast<std::uint64_t>(s));
    expect_same_experiment(reference[static_cast<std::size_t>(s)],
                           *results[static_cast<std::size_t>(s)].experiment);
  }
}

/// A warm-cache rerun must return the identical experiment and be counted
/// as a hit by the perf registry.
TEST(Batch, CacheHitIsIdenticalToColdRunAndCounted) {
  const auto modes = similar_mode_pair(40, 33);
  const auto options = fast_options(CombinedCost::WireLength, 4);

  BatchDriver driver;
  perf::reset();
  const auto cold = run_experiment(modes, options, driver.context());
  const std::uint64_t hits_after_cold =
      perf::counter_value("flowcache.experiment_hits");
  EXPECT_GT(perf::counter_value("flowcache.experiment_misses"), 0u);

  const auto warm = run_experiment(modes, options, driver.context());
  EXPECT_EQ(perf::counter_value("flowcache.experiment_hits"),
            hits_after_cold + 1);
  expect_same_experiment(cold, warm);

  // And the uncached run agrees too (the cache changed nothing).
  const auto uncached = run_experiment(modes, options);
  expect_same_experiment(uncached, warm);
}

/// Cost-engine comparisons share the engine-independent MDR work: the
/// second engine's run hits the MDR placement cache and its MDR results are
/// bit-identical to the first engine's.
TEST(Batch, EngineComparisonReusesMdrSide) {
  const auto modes = similar_mode_pair(45, 55);
  BatchDriver driver;
  perf::reset();
  const auto em = run_experiment(modes, fast_options(CombinedCost::EdgeMatch, 2),
                                 driver.context());
  EXPECT_EQ(perf::counter_value("flowcache.mdr_hits"), 0u);
  const auto wl = run_experiment(
      modes, fast_options(CombinedCost::WireLength, 2), driver.context());
  EXPECT_GT(perf::counter_value("flowcache.mdr_hits"), 0u);
  EXPECT_GT(perf::counter_value("flowcache.probe_hits"), 0u);

  // Same MDR placements regardless of the (DCS-side) cost engine.
  ASSERT_EQ(em.mdr.size(), wl.mdr.size());
  for (std::size_t m = 0; m < em.mdr.size(); ++m) {
    for (std::uint32_t blk = 0; blk < em.mdr[m].placement.num_blocks(); ++blk) {
      EXPECT_EQ(em.mdr[m].placement.site_of(blk),
                wl.mdr[m].placement.site_of(blk));
    }
  }
  const auto wl_metrics = wirelength_metrics(em);
  const auto wl_metrics2 = wirelength_metrics(wl);
  EXPECT_EQ(wl_metrics.mdr, wl_metrics2.mdr);
}

/// Every cached artifact is computed once whatever the worker count, so a
/// parallel engine sweep does exactly the work of a one-worker sweep: the
/// same routing and annealing work and the same misses on every shared tier.
TEST(Batch, WorkIsIdenticalOnOneAndFourWorkers) {
  const auto modes = std::make_shared<const std::vector<techmap::LutCircuit>>(
      similar_mode_pair(150, 61));
  std::vector<BatchJob> jobs;
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    const auto base = fast_options(CombinedCost::WireLength, seed);
    for (auto& job : engine_sweep("c", modes, base)) {
      jobs.push_back(std::move(job));
    }
  }
  const char* const kWork[] = {"route.heap_pops",
                               "place.moves_proposed",
                               "flowcache.probe_misses",
                               "flowcache.final_route_misses",
                               "flowcache.mdr_misses",
                               "flowcache.experiment_misses"};
  struct Run {
    std::vector<BatchResult> results;
    std::vector<std::uint64_t> work;
  };
  auto run_on = [&](int workers) {
    BatchOptions options;
    options.jobs = workers;
    BatchDriver driver(options);
    perf::reset();
    Run run{driver.run(jobs), {}};
    for (const char* name : kWork) {
      run.work.push_back(perf::counter_value(name));
    }
    return run;
  };
  const Run parallel = run_on(4);
  const Run serial = run_on(1);

  for (std::size_t i = 0; i < std::size(kWork); ++i) {
    EXPECT_GT(serial.work[i], 0u) << kWork[i];
    EXPECT_EQ(parallel.work[i], serial.work[i]) << kWork[i];
  }
  ASSERT_EQ(parallel.results.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_TRUE(serial.results[i].experiment != nullptr)
        << serial.results[i].error;
    ASSERT_TRUE(parallel.results[i].experiment != nullptr)
        << parallel.results[i].error;
    expect_same_experiment(*serial.results[i].experiment,
                           *parallel.results[i].experiment);
  }
}

/// Concurrent callers of one key share a single computation: compute runs
/// once, everyone gets its value, and only the producer counts a miss.
TEST(FlowCache, ConcurrentCallersComputeOnce) {
  FlowCache cache;
  FlowKey key;
  key.width = 7;
  std::atomic<int> computes{0};
  std::atomic<bool> go{false};
  perf::reset();
  constexpr int kCallers = 8;
  std::vector<int> values(kCallers, -1);
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      values[static_cast<std::size_t>(t)] = cache.probe_or_compute(key, [&] {
        ++computes;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        return true;
      });
    });
  }
  go = true;
  for (auto& caller : callers) caller.join();
  EXPECT_EQ(computes.load(), 1);
  for (const int value : values) EXPECT_EQ(value, 1);
  EXPECT_EQ(perf::counter_value("flowcache.probe_misses"), 1u);
  EXPECT_EQ(perf::counter_value("flowcache.probe_hits"),
            static_cast<std::uint64_t>(kCallers - 1));
}

/// A producer's exception is its own: a caller waiting on the same key does
/// not inherit it but computes the key itself.
TEST(FlowCache, WaiterRecomputesAfterProducerThrows) {
  FlowCache cache;
  FlowKey key;
  key.width = 9;
  std::atomic<bool> producing{false};
  std::atomic<bool> waiter_started{false};
  perf::reset();
  auto cancelled = [&]() -> bool {
    producing = true;
    while (!waiter_started.load()) std::this_thread::yield();
    // Give the waiter time to block on this computation.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    throw CancelledError("cancelled");
  };
  std::thread producer([&] {
    EXPECT_THROW(cache.probe_or_compute(key, cancelled), CancelledError);
  });
  while (!producing.load()) std::this_thread::yield();
  int waiter_computes = 0;
  waiter_started = true;
  const bool value = cache.probe_or_compute(key, [&] {
    ++waiter_computes;
    return true;
  });
  producer.join();
  EXPECT_TRUE(value);
  EXPECT_EQ(waiter_computes, 1);
  // One miss per producer; the waiter's interrupted wait is no hit.
  EXPECT_EQ(perf::counter_value("flowcache.probe_misses"), 2u);
  EXPECT_EQ(perf::counter_value("flowcache.probe_hits"), 0u);
  EXPECT_TRUE(cache.probe_or_compute(key, [] { return false; }));
}

/// A caller that waits on another caller's computation times the wait as a
/// `flowcache.wait` span; the producer computes and records none.
TEST(FlowCache, WaiterTimesItsWaitAndTheProducerDoesNot) {
  FlowCache cache;
  FlowKey key;
  key.width = 11;
  std::atomic<bool> producing{false};
  std::atomic<bool> waiter_started{false};
  perf::reset();
  std::thread producer([&] {
    EXPECT_TRUE(cache.probe_or_compute(key, [&] {
      producing = true;
      while (!waiter_started.load()) std::this_thread::yield();
      // Give the waiter time to block on this computation.
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      return true;
    }));
  });
  while (!producing.load()) std::this_thread::yield();
  // The producer is inside its computation: nothing has waited yet.
  EXPECT_EQ(perf::timer("flowcache.wait").snapshot().count, 0u);
  waiter_started = true;
  EXPECT_TRUE(cache.probe_or_compute(key, [] { return false; }));
  producer.join();
  const perf::TimerStat wait = perf::timer("flowcache.wait").snapshot();
  EXPECT_EQ(wait.count, 1u);
  EXPECT_GT(wait.total_ns, 0u);
  EXPECT_EQ(perf::counter_value("flowcache.probe_hits"), 1u);
  // A memory hit does not wait either.
  EXPECT_TRUE(cache.probe_or_compute(key, [] { return false; }));
  EXPECT_EQ(perf::timer("flowcache.wait").snapshot().count, 1u);
}

/// Concurrent callers of one spec share one build: one miss, the rest hits,
/// and every caller gets the same graph.
TEST(Batch, RrgCacheBuildsEachSpecOnce) {
  perf::reset();
  RrgCache cache;
  arch::ArchSpec spec;
  spec.nx = 24;
  spec.ny = 24;
  spec.channel_width = 16;
  constexpr int kCallers = 8;
  std::atomic<bool> go{false};
  std::vector<const arch::RoutingGraph*> graphs(kCallers, nullptr);
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      graphs[static_cast<std::size_t>(t)] = cache.get(spec).get();
    });
  }
  go = true;
  for (auto& caller : callers) caller.join();
  for (const auto* graph : graphs) EXPECT_EQ(graph, graphs.front());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(perf::counter_value("rrgcache.misses"), 1u);
  EXPECT_EQ(perf::counter_value("rrgcache.hits"),
            static_cast<std::uint64_t>(kCallers - 1));
}

TEST(Batch, RrgCacheSharesGraphs) {
  perf::reset();
  RrgCache cache;
  arch::ArchSpec spec;
  spec.nx = 4;
  spec.ny = 4;
  spec.channel_width = 6;
  const auto a = cache.get(spec);
  const auto b = cache.get(spec);
  EXPECT_EQ(a.get(), b.get());  // one shared immutable graph
  spec.channel_width = 8;
  const auto c = cache.get(spec);
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(perf::counter_value("rrgcache.hits"), 1u);
  EXPECT_EQ(perf::counter_value("rrgcache.misses"), 2u);
}

TEST(Batch, JobFailureIsCapturedNotPropagated) {
  // An unroutable configuration: max_channel_width too small to ever route.
  const auto modes = similar_mode_pair(50, 77);
  auto bad = fast_options(CombinedCost::WireLength, 1);
  bad.max_channel_width = 1;
  auto good = fast_options(CombinedCost::WireLength, 1);

  const auto shared =
      std::make_shared<const std::vector<techmap::LutCircuit>>(modes);
  std::vector<BatchJob> jobs;
  jobs.push_back(BatchJob{"bad", shared, bad});
  jobs.push_back(BatchJob{"good", shared, good});

  BatchOptions batch_options;
  batch_options.jobs = 2;
  BatchDriver driver(batch_options);
  const auto results = driver.run(jobs);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].experiment, nullptr);
  EXPECT_FALSE(results[0].error.empty());
  ASSERT_TRUE(results[1].experiment != nullptr) << results[1].error;
  EXPECT_TRUE(results[1].experiment->dcs_routing.success);
}

/// Structural hashes: sensitive to content, insensitive to copies.
TEST(Batch, FlowHashesAreStructural) {
  const auto modes_a = similar_mode_pair(40, 91);
  const auto modes_b = modes_a;                      // deep copy
  const auto modes_c = similar_mode_pair(40, 92);    // different content
  EXPECT_EQ(hash_modes(modes_a), hash_modes(modes_b));
  EXPECT_NE(hash_modes(modes_a), hash_modes(modes_c));

  const auto options = FlowOptions{};
  auto tweaked = options;
  tweaked.router.astar_fac = options.router.astar_fac + 0.1;
  EXPECT_NE(hash_flow_options(options), hash_flow_options(tweaked));
  // Seed and engine live in the FlowKey, not the options hash.
  auto reseeded = options;
  reseeded.seed = options.seed + 1;
  reseeded.cost_engine = CombinedCost::EdgeMatch;
  EXPECT_EQ(hash_flow_options(options), hash_flow_options(reseeded));
}

}  // namespace
}  // namespace mmflow::core
