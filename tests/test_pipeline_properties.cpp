// Property and differential tests over the N-stage pipeline graph
// (workflow/pipeline.hpp + pipeline_coupling.hpp).
//
// Three nets:
//   * Unit tests on the PipelineSpec data model: token round-trips,
//     make_chain shapes/names, validation errors, rank resolution, and the
//     sweep-grid pipeline axes.
//   * Randomized seeded pipeline graphs executed end-to-end through
//     PipelineCoupling: every edge delivers exactly once, conserves blocks
//     and bytes hop-to-hop, keeps per-(edge, producer, consumer) network
//     FIFO order, and replays deterministically — across random edge
//     methods, routes, spills, stealing, and preserve.
//   * The lowering contract: a depth-1 all-default chain is trivial() and
//     run_scenario routes it onto the exact legacy code path, so every
//     registered figure's quick-mode CSV is byte-identical with and without
//     it (the golden harness pins the same property in CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "exp/artifacts.hpp"
#include "exp/engine.hpp"
#include "exp/grid.hpp"
#include "exp/registry.hpp"
#include "workflow/pipeline.hpp"
#include "workflow/pipeline_coupling.hpp"
#include "workflow/runner.hpp"

using namespace zipper;
using common::KiB;
using common::MiB;
using core::BlockId;
using workflow::EdgeMethod;
using workflow::PipelineSpec;
using workflow::make_chain;

// ----------------------------------------------------- data-model units ----

TEST(PipelineSpecUnit, EdgeMethodTokensRoundTrip) {
  for (EdgeMethod m : {EdgeMethod::kZip, EdgeMethod::kStaged, EdgeMethod::kPfs}) {
    const auto back = workflow::parse_edge_method(workflow::edge_method_token(m));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, m);
  }
  EXPECT_FALSE(workflow::parse_edge_method("bogus").has_value());
  EXPECT_FALSE(workflow::parse_edge_method("").has_value());
}

TEST(PipelineSpecUnit, MakeChainShapesAndNames) {
  const auto d1 = make_chain(1);
  ASSERT_EQ(d1.stages.size(), 2u);
  EXPECT_EQ(d1.stages[0].name, "sim");
  EXPECT_EQ(d1.stages[1].name, "analyze");
  EXPECT_TRUE(d1.enabled);
  EXPECT_TRUE(d1.trivial());

  const auto d2 = make_chain(2);
  ASSERT_EQ(d2.stages.size(), 3u);
  EXPECT_EQ(d2.stages[1].name, "reduce");
  EXPECT_EQ(d2.stages[2].name, "analyze");
  EXPECT_FALSE(d2.trivial());

  const auto d3 = make_chain(3);
  ASSERT_EQ(d3.stages.size(), 4u);
  EXPECT_EQ(d3.stages[1].name, "reduce");
  EXPECT_EQ(d3.stages[2].name, "analyze");
  EXPECT_EQ(d3.stages[3].name, "store");

  const auto d4 = make_chain(4);
  ASSERT_EQ(d4.stages.size(), 5u);
  EXPECT_EQ(d4.stages[1].name, "reduce");
  EXPECT_EQ(d4.stages[2].name, "stage2");
  EXPECT_EQ(d4.stages[3].name, "analyze");
  EXPECT_EQ(d4.stages[4].name, "store");

  // Compression rides every edge but the first; edge 0 is the simulation's
  // own output.
  const auto cx = make_chain(3, 2, 4.0);
  ASSERT_EQ(cx.edges.size(), 3u);
  EXPECT_DOUBLE_EQ(cx.edges[0].compression, 1.0);
  EXPECT_DOUBLE_EQ(cx.edges[1].compression, 4.0);
  EXPECT_DOUBLE_EQ(cx.edges[2].compression, 4.0);
  EXPECT_EQ(cx.fan, 2);
  EXPECT_NO_THROW(cx.validate());
}

TEST(PipelineSpecUnit, TrivialDetection) {
  EXPECT_TRUE(PipelineSpec{}.trivial());  // disabled == legacy path
  EXPECT_TRUE(make_chain(1).trivial());
  EXPECT_TRUE(make_chain(1, 4, 8.0).trivial());  // fan/compress never touch d1
  EXPECT_FALSE(make_chain(2).trivial());

  auto staged = make_chain(1);
  staged.edges[0].method = EdgeMethod::kStaged;
  EXPECT_FALSE(staged.trivial());

  auto pinned = make_chain(1);
  pinned.stages[1].ranks = 3;
  EXPECT_FALSE(pinned.trivial());

  auto weighted = make_chain(1);
  weighted.stages[1].work_factor = 2.0;
  EXPECT_FALSE(weighted.trivial());
}

TEST(PipelineSpecUnit, ValidateRejectsInconsistentGraphs) {
  EXPECT_NO_THROW(PipelineSpec{}.validate());  // disabled: no-op

  auto one_stage = make_chain(1);
  one_stage.stages.pop_back();
  one_stage.edges.clear();
  EXPECT_THROW(one_stage.validate(), std::invalid_argument);

  auto mismatch = make_chain(2);
  mismatch.edges.pop_back();
  EXPECT_THROW(mismatch.validate(), std::invalid_argument);

  auto bad_fan = make_chain(2);
  bad_fan.fan = 0;
  EXPECT_THROW(bad_fan.validate(), std::invalid_argument);

  auto bad_chaos = make_chain(2);
  bad_chaos.chaos_edge = 2;
  EXPECT_THROW(bad_chaos.validate(), std::invalid_argument);

  auto cx0 = make_chain(2);
  cx0.edges[0].compression = 2.0;  // edge 0 must stay at 1
  EXPECT_THROW(cx0.validate(), std::invalid_argument);

  auto cx_neg = make_chain(2);
  cx_neg.edges[1].compression = 0.0;
  EXPECT_THROW(cx_neg.validate(), std::invalid_argument);

  auto bad_ranks = make_chain(2);
  bad_ranks.stages[1].ranks = -1;
  EXPECT_THROW(bad_ranks.validate(), std::invalid_argument);

  auto bad_wf = make_chain(2);
  bad_wf.stages[2].work_factor = 0.0;
  EXPECT_THROW(bad_wf.validate(), std::invalid_argument);
}

TEST(PipelineSpecUnit, ResolvedRanksFollowTheFanRule) {
  const auto d3 = make_chain(3, 2);
  EXPECT_EQ(d3.resolved_ranks(8, 4), (std::vector<int>{8, 4, 2, 1}));
  // Deep fan-in floors at one rank.
  const auto d4 = make_chain(4, 4);
  EXPECT_EQ(d4.resolved_ranks(8, 4), (std::vector<int>{8, 4, 1, 1, 1}));
  // Pinned stage ranks override the derivation.
  auto pinned = make_chain(3, 2);
  pinned.stages[2].ranks = 5;
  EXPECT_EQ(pinned.resolved_ranks(8, 4), (std::vector<int>{8, 4, 5, 2}));
}

TEST(PipelineSpecUnit, SweepGridPipelineAxes) {
  exp::SweepGrid grid;
  grid.base.method = transports::Method::kZipper;
  grid.pipeline_stages = {1, 2};
  grid.pipeline_fan = {1, 2};
  EXPECT_EQ(grid.size(), 4u);
  const auto specs = grid.expand();
  ASSERT_EQ(specs.size(), 4u);
  for (const auto& s : specs) {
    EXPECT_TRUE(s.pipeline.enabled);
    EXPECT_NO_THROW(s.pipeline.validate());
  }
  EXPECT_NE(specs[0].label.find("/stages1/fan1"), std::string::npos);
  EXPECT_NE(specs[3].label.find("/stages2/fan2"), std::string::npos);
  EXPECT_TRUE(specs[0].pipeline.trivial());   // --stages 1 is the legacy path
  EXPECT_FALSE(specs[3].pipeline.trivial());
  EXPECT_EQ(specs[3].pipeline.fan, 2);

  // No pipeline axes: the base spec's (disabled) pipeline rides through.
  exp::SweepGrid none;
  none.steps = {2, 4};
  for (const auto& s : none.expand()) EXPECT_FALSE(s.pipeline.enabled);
}

// ------------------------------------- randomized pipeline-graph runs ----

namespace {

apps::WorkloadProfile pipeline_profile() {
  apps::WorkloadProfile p;
  p.name = "pipeline-sweep";
  p.steps = 3;
  p.bytes_per_rank_per_step = 2 * MiB + 256 * KiB;  // non-divisible split
  p.t_collision = sim::from_seconds(0.02);
  p.t_update = sim::from_seconds(0.01);
  p.analysis_ns_per_byte = 30.0;  // consumers lag: real backpressure
  return p;
}

struct EdgeDelivery {
  int edge;
  int consumer;
  core::BlockHeader h;
};

struct PipeOutcome {
  PipelineSpec spec;
  int producers = 0;
  double end_to_end_s = 0;
  std::vector<core::dsim::SimZipperStats> stats;  // per edge
  std::vector<EdgeDelivery> deliveries;
};

/// Builds a random (but seed-deterministic) pipeline graph + schedule
/// configuration and runs it end-to-end through PipelineCoupling.
PipeOutcome run_random_pipeline(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto pick = [&rng](int lo, int hi) {
    return lo + static_cast<int>(rng() % static_cast<std::uint64_t>(hi - lo + 1));
  };

  auto pl = make_chain(/*depth=*/pick(2, 3), /*fan=*/pick(1, 2),
                       /*compress=*/static_cast<double>(pick(1, 2)),
                       /*staging=*/pick(0, 1) == 1);
  const EdgeMethod methods[] = {EdgeMethod::kZip, EdgeMethod::kStaged,
                                EdgeMethod::kPfs};
  for (std::size_t e = 1; e < pl.edges.size(); ++e) {
    pl.edges[e].method = methods[pick(0, 2)];
  }
  pl.validate();

  core::dsim::SimZipperConfig z;
  z.block_bytes = 512 * KiB;
  z.producer_buffer_blocks = 4;
  z.consumer_buffer_blocks = 8;
  z.sender_window = 2;
  z.enable_steal = pick(0, 1) == 1;
  z.preserve = pick(0, 1) == 1;
  const core::sched::RouteKind routes[] = {core::sched::RouteKind::kStatic,
                                           core::sched::RouteKind::kRoundRobin,
                                           core::sched::RouteKind::kLeastQueued};
  const core::sched::SpillKind spills[] = {core::sched::SpillKind::kHighWater,
                                           core::sched::SpillKind::kHysteresis,
                                           core::sched::SpillKind::kAdaptive};
  z.sched.route = routes[pick(0, 2)];
  z.sched.spill = spills[pick(0, 2)];
  z.sched.consumer_steal = pick(0, 1) == 1;
  z.sched.steal_min_queue = 2;

  const int P = pick(3, 5);
  const int Q = pick(2, 3);
  const auto ranks = pl.resolved_ranks(P, Q);
  int servers = 0;
  for (std::size_t i = 2; i < ranks.size(); ++i) servers += ranks[i];

  const auto prof = pipeline_profile();
  workflow::Layout layout{P, ranks[1], servers};
  workflow::Cluster cluster(workflow::ClusterSpec::bridges(), layout);
  cluster.recorder.set_enabled(false);
  workflow::PipelineCoupling coupling(cluster, prof, z, pl);

  PipeOutcome out;
  out.spec = pl;
  out.producers = P;
  coupling.on_edge_analyzed = [&out](int e, int c, const core::BlockHeader& h) {
    out.deliveries.push_back({e, c, h});
  };
  out.end_to_end_s = workflow::run_workflow(cluster, prof, &coupling).end_to_end_s;
  for (int e = 0; e < coupling.num_edges(); ++e) {
    out.stats.push_back(coupling.edge_stats(e));
  }
  return out;
}

/// The byte count edge e+1's forwarder emits for an edge-e block.
std::uint64_t forwarded_bytes(std::uint64_t bytes, double compression) {
  return std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(static_cast<double>(bytes) / compression));
}

}  // namespace

class PipelineGraphs : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(SeededGraphs, PipelineGraphs,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

TEST_P(PipelineGraphs, EveryEdgeDeliversExactlyOnce) {
  const auto out = run_random_pipeline(GetParam());
  const auto prof = pipeline_profile();
  const int E = out.spec.num_edges();

  std::vector<std::set<BlockId>> seen(static_cast<std::size_t>(E));
  std::vector<std::uint64_t> count(static_cast<std::size_t>(E), 0);
  for (const auto& d : out.deliveries) {
    ASSERT_GE(d.edge, 0);
    ASSERT_LT(d.edge, E);
    EXPECT_TRUE(seen[static_cast<std::size_t>(d.edge)].insert(d.h.id).second)
        << "edge " << d.edge << ": " << d.h.id.to_string() << " delivered twice";
    ++count[static_cast<std::size_t>(d.edge)];
  }
  const std::uint64_t total_bytes = static_cast<std::uint64_t>(out.producers) *
                                    prof.steps * prof.bytes_per_rank_per_step;
  for (int e = 0; e < E; ++e) {
    const auto& s = out.stats[static_cast<std::size_t>(e)];
    EXPECT_EQ(s.blocks_analyzed, s.blocks_total) << "edge " << e;
    EXPECT_EQ(count[static_cast<std::size_t>(e)], s.blocks_analyzed)
        << "edge " << e;
    EXPECT_GT(s.blocks_total, 0u) << "edge " << e;
  }
  // Edge 0 carries the simulation's full output.
  EXPECT_EQ(out.stats[0].bytes_via_network + out.stats[0].bytes_via_pfs,
            total_bytes);
}

TEST_P(PipelineGraphs, HopToHopConservation) {
  const auto out = run_random_pipeline(GetParam());
  const int E = out.spec.num_edges();
  // Blocks and bytes leaving edge e's analysis enter edge e+1 re-stamped,
  // scaled by the edge's compression — nothing dropped, nothing invented.
  for (int e = 0; e + 1 < E; ++e) {
    std::uint64_t fwd_blocks = 0, fwd_bytes = 0;
    for (const auto& d : out.deliveries) {
      if (d.edge != e) continue;
      ++fwd_blocks;
      fwd_bytes += forwarded_bytes(
          d.h.bytes, out.spec.edges[static_cast<std::size_t>(e) + 1].compression);
    }
    const auto& down = out.stats[static_cast<std::size_t>(e) + 1];
    EXPECT_EQ(down.blocks_total, fwd_blocks) << "edge " << e + 1;
    EXPECT_EQ(down.bytes_via_network + down.bytes_via_pfs, fwd_bytes)
        << "edge " << e + 1;
  }
}

TEST_P(PipelineGraphs, PerEdgeNetworkFifoOrderPerProducerConsumerPair) {
  const auto out = run_random_pipeline(GetParam());
  // Within one edge, the network channel never reorders one (local)
  // producer's blocks as seen by any one consumer — stealing moves whole
  // ready blocks, and a stolen subsequence of a FIFO is still in order.
  // Spilled blocks ride the reader path, which reorders by design.
  //
  // The FIFO key differs by edge: the simulation stamps {step, p, b} with b
  // resetting each step, while interior forwarders stamp a never-resetting
  // seq as the index and carry the *upstream* step (which can interleave
  // across the upstream consumer's sources) — so deeper edges order by
  // index alone.
  const auto fifo_key = [](int edge, const BlockId& id) {
    return edge == 0 ? std::pair{id.step, id.index} : std::pair{0, id.index};
  };
  std::map<std::tuple<int, int, int>,  // (edge, producer, consumer)
           std::pair<std::int32_t, std::int32_t>>
      last;
  for (const auto& d : out.deliveries) {
    if (d.h.on_disk) continue;
    const std::tuple<int, int, int> key{d.edge, d.h.id.producer, d.consumer};
    const auto it = last.find(key);
    if (it != last.end()) {
      EXPECT_LT(it->second, fifo_key(d.edge, d.h.id))
          << "edge " << d.edge << " producer " << d.h.id.producer
          << " -> consumer " << d.consumer << " went backwards";
    }
    last[key] = fifo_key(d.edge, d.h.id);
  }
}

TEST_P(PipelineGraphs, DeterministicReplay) {
  const auto a = run_random_pipeline(GetParam());
  const auto b = run_random_pipeline(GetParam());
  EXPECT_EQ(a.end_to_end_s, b.end_to_end_s);
  ASSERT_EQ(a.deliveries.size(), b.deliveries.size());
  for (std::size_t i = 0; i < a.deliveries.size(); ++i) {
    EXPECT_EQ(a.deliveries[i].edge, b.deliveries[i].edge);
    EXPECT_EQ(a.deliveries[i].consumer, b.deliveries[i].consumer);
    EXPECT_EQ(a.deliveries[i].h.id, b.deliveries[i].h.id);
    EXPECT_EQ(a.deliveries[i].h.bytes, b.deliveries[i].h.bytes);
  }
}

// ------------------------------------------------- the lowering contract ----

TEST(PipelineDifferential, TrivialChainIsByteIdenticalAcrossAllFigures) {
  // A depth-1 all-default chain must lower onto the exact legacy code path:
  // for every registered figure, quick-mode results are byte-identical with
  // and without it. Scenarios that already carry a real pipeline (the hybrid
  // figures) are excluded — overwriting their graph would change the
  // experiment, not test the lowering.
  //
  // Every figure's original and lowered specs go through one parallel sweep;
  // run_sweep's results are byte-identical at any -j, so only wall time
  // changes. Each figure is then compared on its own slice.
  struct Slice {
    std::string figure;
    std::size_t first = 0;  // original specs at [first, first + n),
    std::size_t n = 0;      // lowered specs at [first + n, first + 2n)
  };
  std::vector<Slice> slices;
  std::vector<exp::ScenarioSpec> all;
  for (const auto& fig : exp::registry()) {
    std::vector<exp::ScenarioSpec> specs;
    for (auto& s : fig.scenarios(false)) {
      if (!s.pipeline.enabled) specs.push_back(std::move(s));
    }
    if (specs.empty()) continue;
    slices.push_back({fig.name, all.size(), specs.size()});
    all.insert(all.end(), specs.begin(), specs.end());
    for (auto& s : specs) {
      s.pipeline = make_chain(1);
      all.push_back(std::move(s));
    }
  }

  exp::SweepOptions so;
  so.jobs = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const auto res = exp::run_sweep(all, so);
  ASSERT_EQ(res.size(), all.size());
  for (const Slice& sl : slices) {
    const auto at = [&](std::size_t off) {
      return res.begin() + static_cast<std::ptrdiff_t>(sl.first + off);
    };
    const std::vector<exp::ScenarioResult> a(at(0), at(sl.n));
    const std::vector<exp::ScenarioResult> b(at(sl.n), at(2 * sl.n));
    EXPECT_EQ(exp::to_csv(a), exp::to_csv(b)) << sl.figure;
    EXPECT_EQ(exp::to_json(a), exp::to_json(b)) << sl.figure;
  }
}
