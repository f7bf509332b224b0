// Sharded parallel DES: run_shards()'s free-run contract (per-shard event
// order equal to a private sequential run at every thread count, error
// propagation after every worker joins), the conservative auto-partitioner's
// safety gates, and the end-to-end byte-identity of sharded scenario
// artifacts against the sequential run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "exp/artifacts.hpp"
#include "exp/grid.hpp"
#include "exp/partition.hpp"
#include "exp/registry.hpp"
#include "exp/scenario.hpp"
#include "sim/sharded.hpp"
#include "sim/simulation.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

using namespace zipper;
using namespace zipper::sim;

namespace {

Task log_delays(Simulation& sim, std::vector<std::pair<Time, int>>& log,
                int id, int count, Time stride) {
  for (int i = 0; i < count; ++i) {
    co_await sim.delay(stride);
    log.emplace_back(sim.now(), id);
  }
}

// `n` fresh shards plus the pointer view run_shards() takes.
struct Shards {
  std::vector<std::unique_ptr<Simulation>> owned;
  std::vector<Simulation*> ptrs;
  explicit Shards(int n) {
    for (int s = 0; s < n; ++s) {
      owned.push_back(std::make_unique<Simulation>());
      ptrs.push_back(owned.back().get());
    }
  }
  Simulation& operator[](int s) { return *ptrs[static_cast<std::size_t>(s)]; }
};

}  // namespace

// ------------------------------------------------------------------ engine --

// A fully decomposed partition must produce, per shard, exactly the event
// sequence the same workload produces on a private sequential Simulation —
// at every thread count.
TEST(ShardedSim, RunFreeMatchesSequentialPerShard) {
  auto reference = [](int id) {
    Simulation sim;
    std::vector<std::pair<Time, int>> log;
    sim.spawn(log_delays(sim, log, id, 50, 7 + id));
    sim.spawn(log_delays(sim, log, 100 + id, 30, 11));
    sim.run();
    return std::tuple{log, sim.events_dispatched(), sim.now()};
  };

  for (int threads : {1, 2, 4}) {
    Shards shards(3);
    std::vector<std::vector<std::pair<Time, int>>> logs(3);
    for (int s = 0; s < 3; ++s) {
      auto& sh = shards[s];
      sh.spawn(log_delays(sh, logs[static_cast<std::size_t>(s)], s, 50, 7 + s));
      sh.spawn(log_delays(sh, logs[static_cast<std::size_t>(s)], 100 + s, 30, 11));
    }
    const auto stats = run_shards(shards.ptrs, threads);
    std::uint64_t total_events = 0;
    Time max_end = 0;
    for (int s = 0; s < 3; ++s) {
      const auto [ref_log, ref_events, ref_end] = reference(s);
      EXPECT_EQ(logs[static_cast<std::size_t>(s)], ref_log) << "shard " << s;
      total_events += ref_events;
      max_end = std::max(max_end, ref_end);
    }
    EXPECT_EQ(stats.events, total_events);
    EXPECT_EQ(stats.end_time, max_end);
  }
}

// One shard run on four requested threads is just a Simulation: the thread
// count clamps to one worker, and events and end time match the plain run.
TEST(ShardedSim, SingleShardDegenerateMatchesPlainSimulation) {
  Simulation ref;
  std::vector<std::pair<Time, int>> ref_log;
  ref.spawn(log_delays(ref, ref_log, 0, 20, 13));
  ref.run();

  Shards shards(1);
  std::vector<std::pair<Time, int>> log;
  shards[0].spawn(log_delays(shards[0], log, 0, 20, 13));
  const auto stats = run_shards(shards.ptrs, 4);
  EXPECT_EQ(log, ref_log);
  EXPECT_EQ(stats.events, ref.events_dispatched());
  EXPECT_EQ(stats.end_time, ref.now());
}

// A root process that throws in one shard fails the whole run, but only
// after every worker has joined: the other shards, including those queued
// behind the failing one on the same worker, still run to completion.
TEST(ShardedSim, WorkerExceptionRethrownAfterAllShardsJoin) {
  for (int threads : {1, 4}) {
    Shards shards(4);
    std::vector<std::vector<std::pair<Time, int>>> logs(4);
    for (int s = 0; s < 4; ++s) {
      auto& sh = shards[s];
      if (s == 1) {
        sh.spawn([](Simulation& sim) -> Task {
          co_await sim.delay(5);
          throw std::runtime_error("shard 1 failed");
        }(sh));
      }
      sh.spawn(log_delays(sh, logs[static_cast<std::size_t>(s)], s, 40, 3 + s));
    }
    EXPECT_THROW(
        {
          try {
            run_shards(shards.ptrs, threads);
          } catch (const std::runtime_error& e) {
            EXPECT_STREQ(e.what(), "shard 1 failed");
            throw;
          }
        },
        std::runtime_error)
        << "threads=" << threads;
    for (int s = 0; s < 4; ++s) {
      if (s == 1) continue;
      const auto& log = logs[static_cast<std::size_t>(s)];
      ASSERT_EQ(log.size(), 40u) << "threads=" << threads << " shard " << s;
      EXPECT_EQ(log.back().first, static_cast<Time>(40 * (3 + s)));
      EXPECT_EQ(shards[s].unfinished_processes(), 0u);
    }
  }
}

// --------------------------------------------------------- auto-partitioner --

namespace {

// The scaling_xl shape: the decomposable CFD spec (no spill, no halo ring).
exp::ScenarioSpec shardable_spec() {
  exp::ScenarioSpec s;
  s.cluster = "stampede2";
  s.workload = exp::Workload::kCfdStampede2;
  s.steps = 2;
  s.producers = 544;   // 8 KNL hosts
  s.consumers = 272;   // 4 KNL hosts
  s.method = transports::Method::kZipper;
  s.zipper.enable_steal = false;
  s.halo_neighbors = 0;
  s.label = "parallel/base";
  return s;
}

}  // namespace

TEST(PlanShards, ShardsTheDecomposableSpec) {
  const auto spec = shardable_spec();
  const auto plan = exp::plan_shards(spec, 4);
  ASSERT_TRUE(plan.sharded()) << plan.fallback_reason;
  EXPECT_GE(plan.num_shards, 2);
  EXPECT_LE(plan.threads, 4);

  // Groups tile [0,P) x [0,Q) contiguously and rank_to_shard agrees.
  const int P = spec.producers, Q = spec.effective_consumers();
  ASSERT_EQ(plan.rank_to_shard.size(), static_cast<std::size_t>(P + Q));
  int p = 0, c = 0;
  for (std::size_t s = 0; s < plan.groups.size(); ++s) {
    const auto& g = plan.groups[s];
    EXPECT_EQ(g.p0, p);
    EXPECT_EQ(g.c0, c);
    EXPECT_GT(g.p1, g.p0);
    EXPECT_GT(g.c1, g.c0);
    for (int i = g.p0; i < g.p1; ++i)
      EXPECT_EQ(plan.rank_to_shard[static_cast<std::size_t>(i)],
                static_cast<int>(s));
    for (int i = g.c0; i < g.c1; ++i)
      EXPECT_EQ(plan.rank_to_shard[static_cast<std::size_t>(P + i)],
                static_cast<int>(s));
    p = g.p1;
    c = g.c1;
  }
  EXPECT_EQ(p, P);
  EXPECT_EQ(c, Q);
}

// Every safety gate must force the sequential fallback with a stated reason.
TEST(PlanShards, GatesFallBackToSequential) {
  const auto base = shardable_spec();
  const auto expect_fallback = [](exp::ScenarioSpec s, const char* what) {
    const auto plan = exp::plan_shards(s, 4);
    EXPECT_FALSE(plan.sharded()) << what;
    EXPECT_EQ(plan.num_shards, 1) << what;
    EXPECT_FALSE(plan.fallback_reason.empty()) << what;
  };

  EXPECT_FALSE(exp::plan_shards(base, 1).sharded())
      << "threads=1 must stay sequential";

  auto s = base;
  s.method = std::nullopt;
  expect_fallback(s, "sim-only");

  s = base;
  s.method = transports::Method::kDecaf;
  expect_fallback(s, "non-zipper transport");

  s = base;
  s.zipper.enable_steal = true;  // the default: spill may touch the PFS
  expect_fallback(s, "writer spill enabled");

  s = base;
  s.zipper.sched.consumer_steal = true;
  expect_fallback(s, "consumer stealing");

  s = base;
  s.zipper.preserve = true;
  expect_fallback(s, "preserve mode");

  s = base;
  s.chaos.straggler = {1, 4.0};
  expect_fallback(s, "chaos injection");

  s = base;
  s.record_traces = true;
  expect_fallback(s, "trace recording");

  s = base;
  s.adaptive_control = true;
  expect_fallback(s, "adaptive control");

  s = base;
  s.background_load_intensity = 0.4;
  expect_fallback(s, "background PFS load");

  s = base;
  s.halo_neighbors = 2;
  expect_fallback(s, "halo ring couples producers");

  s = base;
  s.producers = 136;
  s.consumers = 272;
  expect_fallback(s, "P < Q fan-out routing");

  s = base;
  s.consumers = 68;  // one consumer host: no host-aligned 2-way cut exists
  expect_fallback(s, "no aligned partition");
}

// The oversized thread count must clamp to the shard count, never exceed it.
TEST(PlanShards, ThreadsClampToShards) {
  const auto plan = exp::plan_shards(shardable_spec(), 64);
  ASSERT_TRUE(plan.sharded()) << plan.fallback_reason;
  EXPECT_LE(plan.threads, plan.num_shards);
}

// -------------------------------------------------- scenario byte-identity --

// The headline contract: a sharded scenario run writes byte-identical CSV
// and JSON artifacts to the sequential run, at any --sim-threads value.
TEST(ShardedScenario, ArtifactsByteIdenticalAcrossSimThreads) {
  auto spec = shardable_spec();
  const auto seq = exp::run_scenario(spec);
  ASSERT_FALSE(seq.crashed) << seq.note;
  const auto seq_csv = exp::to_csv({seq});
  const auto seq_json = exp::to_json({seq});
  for (int threads : {2, 4, 8}) {
    auto sharded = spec;
    sharded.sim_threads = threads;
    const auto r = exp::run_scenario(sharded);
    EXPECT_EQ(exp::to_csv({r}), seq_csv) << "sim_threads=" << threads;
    EXPECT_EQ(exp::to_json({r}), seq_json) << "sim_threads=" << threads;
  }
}

// Registered figures must be --sim-threads-invariant too: specs the
// partitioner can shard run sharded, everything else falls back — either
// way the artifact bytes cannot change.
TEST(ShardedScenario, RegisteredFigureSpecsUnchangedBySimThreads) {
  for (const char* name : {"scaling_xl", "fig12"}) {
    const auto* fig = exp::find_figure(name);
    ASSERT_NE(fig, nullptr) << name;
    auto specs = fig->scenarios(false);
    ASSERT_FALSE(specs.empty());
    auto spec = specs.front();  // one representative point per figure
    const auto seq = exp::run_scenario(spec);
    auto sharded = spec;
    sharded.sim_threads = 8;
    const auto r = exp::run_scenario(sharded);
    EXPECT_EQ(exp::to_csv({r}), exp::to_csv({seq})) << name;
    EXPECT_EQ(exp::to_json({r}), exp::to_json({seq})) << name;
  }
}

// Runtime hooks must fire exactly once per analyzed block with *global*
// consumer and producer indices, whether the run is sequential or sharded
// (where they fire on shard worker threads under the caller's lock).
TEST(ShardedScenario, HooksFireExactlyOnceWithGlobalIndices) {
  using Seen = std::vector<std::tuple<int, int, int, int, std::uint64_t>>;
  const auto collect = [](int sim_threads) {
    auto spec = shardable_spec();
    spec.sim_threads = sim_threads;
    auto seen = std::make_shared<Seen>();
    auto mu = std::make_shared<std::mutex>();
    spec.zipper.on_analyzed = [seen, mu](int c, const core::BlockHeader& h) {
      std::lock_guard<std::mutex> lk(*mu);
      seen->emplace_back(c, h.id.step, h.id.producer, h.id.index, h.bytes);
    };
    const auto r = exp::run_scenario(spec);
    EXPECT_FALSE(r.crashed) << r.note;
    std::sort(seen->begin(), seen->end());
    return *seen;
  };

  const auto seq = collect(1);
  ASSERT_FALSE(seq.empty());
  const auto par = collect(4);
  EXPECT_EQ(seq, par);

  const auto spec = shardable_spec();
  for (const auto& [c, step, producer, index, bytes] : par) {
    EXPECT_GE(c, 0);
    EXPECT_LT(c, spec.effective_consumers());
    EXPECT_GE(producer, 0);
    EXPECT_LT(producer, spec.producers);
    EXPECT_GT(bytes, 0u);
    (void)step;
    (void)index;
  }
}

// shard_* diagnostic columns are strictly opt-in, and report a real
// multi-shard execution when the partitioner sharded the run.
TEST(ShardedScenario, ShardMetricsColumnsOptIn) {
  auto spec = shardable_spec();
  spec.sim_threads = 4;
  const auto quiet = exp::run_scenario(spec);
  for (const auto& [k, v] : quiet.metrics) {
    EXPECT_NE(k.rfind("shard_", 0), 0u) << k;
  }

  spec.shard_metrics = true;
  const auto loud = exp::run_scenario(spec);
  EXPECT_GE(loud.get("shard_count"), 2.0);
  EXPECT_GE(loud.get("shard_threads"), 2.0);
  EXPECT_GT(loud.get("shard_events"), 0.0);
}

// The sweep grid's sim_threads axis tags labels and switches the points to
// shard_metrics, unlike the figure-level --sim-threads flag which must not
// change anything.
TEST(ShardedScenario, GridSimThreadsAxis) {
  exp::SweepGrid g;
  g.label_prefix = "t";
  g.base = shardable_spec();
  g.sim_threads = {1, 4};
  const auto specs = g.expand();
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].label, "t/t1");
  EXPECT_EQ(specs[1].label, "t/t4");
  EXPECT_EQ(specs[0].sim_threads, 1);
  EXPECT_EQ(specs[1].sim_threads, 4);
  EXPECT_TRUE(specs[0].shard_metrics);
  EXPECT_TRUE(specs[1].shard_metrics);
}
