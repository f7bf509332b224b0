// Sharded parallel DES driver: free-running shards.
//
// run_shards() runs N independent `Simulation` shards, each owning a disjoint
// set of coroutines (in the workflow layer: a contiguous block of ranks and
// the fabric resources of their hosts), on up to `threads` worker threads.
// Every shard runs to completion with no barriers, so the partition must be
// fully decomposed: no wake may cross a shard, and Simulation::current()
// asserts that in debug builds. The auto-partitioner (exp/partition.hpp) only
// shards a scenario when it can prove decomposability, which makes the result
// byte-identical to the sequential run at any thread count.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/simulation.hpp"
#include "sim/time.hpp"

namespace zipper::sim {

/// Deterministic run statistics (no wall-clock; sync overhead in wall time is
/// a property of the host and is measured by the bench harnesses instead).
struct ShardedStats {
  std::uint64_t events = 0;  // events dispatched across all shards
  Time end_time = 0;         // max shard clock at completion
};

/// Runs every shard to completion on min(max(threads, 1), shards.size())
/// workers: shard s runs on worker s % T, and the calling thread is worker
/// 0. A shard that throws does not stop the others: every shard still runs,
/// and the first exception caught is rethrown after every worker has joined.
ShardedStats run_shards(const std::vector<Simulation*>& shards, int threads);

}  // namespace zipper::sim
