// Auto-partitioner for sharded parallel DES runs.
//
// plan_shards() decides whether a ScenarioSpec can be decomposed into
// independent rank groups — one per shard — such that no simulated
// interaction ever crosses a group boundary. Only then does run_scenario use
// the sharded path, which is what makes a sharded run trivially
// byte-identical to the sequential run at any thread count: the shards
// free-run (sim::run_shards) with no cross-shard events at all.
//
// Decomposability requires, in order of checking:
//   * a plain Zipper workflow (no pipeline chain, no staging servers),
//   * static contiguous routing with P >= Q and no stealing — each
//     consumer's producers are a fixed contiguous block,
//   * no PFS traffic (writer spill, preserve output, background load) and
//     no chaos/adaptive control — the PFS and the control loop are global,
//   * no halo ring and no trace recording,
//   * group boundaries aligned to whole hosts (ranks share NICs within a
//     host) and to whole leaves for multi-leaf groups (cross-leaf transfers
//     occupy leaf switch ports).
// Every rule is re-validated empirically against core::consumer_of before a
// plan is returned; anything unprovable falls back to a sequential plan with
// `fallback_reason` set.
#pragma once

#include "exp/scenario.hpp"
#include "workflow/runner.hpp"

namespace zipper::exp {

/// Plans a sharded execution of `spec` over up to `threads` workers.
/// Returns a sharded plan (num_shards > 1) only when full decomposability
/// was proven; otherwise a sequential plan with fallback_reason set.
workflow::ShardPlan plan_shards(const ScenarioSpec& spec, int threads);

}  // namespace zipper::exp
