// The workflow runner: spawns producer and consumer rank processes over a
// Cluster, drives them through the WorkloadProfile's steps, and collects the
// timings every figure of the paper reports.
//
// A producer process per step runs the trace-visible phases:
//     collision (CL) -> streaming (ST: halo MPI_Sendrecv + compute) ->
//     update (UD) -> PUT (coupling->producer_step)
// so transport-induced interference with MPI_Sendrecv (Figs 5/6/17/19)
// emerges mechanically from shared NICs rather than being scripted.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include <vector>

#include "apps/profiles.hpp"
#include "core/chaos/chaos.hpp"
#include "core/dsim/sim_runtime.hpp"
#include "workflow/cluster.hpp"
#include "workflow/coupling.hpp"

namespace zipper::workflow {

struct RunResult {
  double end_to_end_s = 0;        // all producers + consumers finished
  double producers_done_s = 0;    // last producer finished (incl. final put)
  double compute_s = 0;           // per-producer average pure-compute time
  double halo_s = 0;              // per-producer average MPI_Sendrecv time
  double put_s = 0;               // per-producer average PUT/stall time
  double analysis_s = 0;          // per-consumer average analysis time
  std::uint64_t producer_xmit_wait = 0;
  std::map<std::string, double> metrics;  // coupling-specific extras
};

/// Runs one workflow. `coupling == nullptr` runs the simulation only (the
/// paper's "Simulation-only" lower-bound series). `chaos`, when non-null,
/// applies the drift axis: each producer's compute phases are scaled by
/// chaos->compute_multiplier(p, step) (the straggler/fault/burst axes act
/// inside the runtime and PFS instead).
RunResult run_workflow(Cluster& cluster, const apps::WorkloadProfile& profile,
                       Coupling* coupling,
                       const core::chaos::ChaosEngine* chaos = nullptr);

/// One shard's slice of the workflow: producers [p0, p1) and consumers
/// [c0, c1) by global index. The partitioner aligns group boundaries so
/// every producer's statically-routed consumer lands in the same group.
struct ShardGroup {
  int p0 = 0, p1 = 0;  // producer index range
  int c0 = 0, c1 = 0;  // consumer index range
};

/// A validated shard assignment produced by exp/partition.hpp. num_shards ==
/// 1 means "run sequentially" (fallback_reason says why). Only plans proved
/// fully decomposable are sharded, so the shards free-run with no barriers.
struct ShardPlan {
  int num_shards = 1;
  int threads = 1;
  std::vector<ShardGroup> groups;   // one per shard
  std::vector<int> rank_to_shard;   // size cluster.num_ranks()
  std::string fallback_reason;      // set when num_shards == 1
  bool sharded() const noexcept { return num_shards > 1; }
};

/// Diagnostic counters from a sharded run (emitted only under the
/// shard_metrics spec flag — wall_s is host-dependent and must never reach
/// default artifacts).
struct ShardRunInfo {
  std::uint64_t events = 0;  // events dispatched across all shards
  double wall_s = 0;         // wall-clock of the parallel run loop
};

/// Sharded Zipper workflow run: builds one slice SimZipper per shard group
/// (hooks wrapped to report global producer/consumer indices — hooks run on
/// shard worker threads, so user hooks must be thread-safe), spawns each
/// rank's process on its shard's kernel, and free-runs all shards on
/// plan.threads workers. Byte-identical to run_workflow of the same spec at
/// any thread count. Requires plan.sharded() and a Cluster built with the
/// plan's ShardMap.
RunResult run_workflow_sharded(Cluster& cluster,
                               const apps::WorkloadProfile& profile,
                               const core::dsim::SimZipperConfig& base_cfg,
                               const ShardPlan& plan,
                               ShardRunInfo* info = nullptr);

}  // namespace zipper::workflow
