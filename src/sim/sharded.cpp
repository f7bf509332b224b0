#include "sim/sharded.hpp"

#include <algorithm>
#include <exception>
#include <mutex>
#include <thread>

namespace zipper::sim {

ShardedStats run_shards(const std::vector<Simulation*>& shards, int threads) {
  const int S = static_cast<int>(shards.size());
  const int T = std::clamp(threads, 1, std::max(S, 1));
  std::uint64_t base_events = 0;
  for (const Simulation* s : shards) base_events += s->events_dispatched();

  std::exception_ptr first_error;
  std::mutex error_mu;
  auto work = [&](int w) {
    for (int s = w; s < S; s += T) {
      try {
        shards[static_cast<std::size_t>(s)]->run();
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };
  {
    // jthread joins on destruction, so a failed thread start still joins
    // the workers already running before `work`'s captures go away.
    std::vector<std::jthread> pool;
    pool.reserve(static_cast<std::size_t>(T - 1));
    for (int w = 1; w < T; ++w) pool.emplace_back(work, w);
    work(0);
  }
  if (first_error) std::rethrow_exception(first_error);

  ShardedStats stats;
  for (const Simulation* s : shards) {
    stats.events += s->events_dispatched();
    stats.end_time = std::max(stats.end_time, s->now());
  }
  stats.events -= base_events;
  return stats;
}

}  // namespace zipper::sim
