// Completion latch + structured concurrency helper for simulated tasks.
//
// `BasicLatch` counts down to zero and wakes all waiters; like the primitives
// in sync.hpp it is a template over its scheduler (`Latch` is the DES
// instantiation). `when_all` runs a batch of Tasks concurrently (as detached
// processes) and resumes its awaiter when every one has finished — the
// building block for MPI_Waitall-style semantics.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/simulation.hpp"
#include "sim/task.hpp"

namespace zipper::sim {

template <typename Sched = Simulation>
class BasicLatch {
 public:
  BasicLatch(Sched& sched, std::int64_t count) : sched_(&sched), count_(count) {}
  BasicLatch(const BasicLatch&) = delete;
  BasicLatch& operator=(const BasicLatch&) = delete;

  void count_down(std::int64_t n = 1) {
    assert(count_ >= n && "latch underflow");
    count_ -= n;
    // Under the DES, waking everyone is a single O(1) splice of the
    // intrusive waiter list into the current event bucket.
    if (count_ == 0) sched_->wake_all_now(waiters_);
  }

  struct WaitAwaiter {
    BasicLatch* l;
    SchedNode node{};
    bool await_ready() const noexcept { return l->count_ == 0; }
    void await_suspend(std::coroutine_handle<> h) {
      node.h = h;
      l->waiters_.push_back(&node);
    }
    void await_resume() const noexcept {}
  };

  WaitAwaiter wait() { return WaitAwaiter{this}; }
  std::int64_t pending() const noexcept { return count_; }

 private:
  Sched* sched_;
  std::int64_t count_;
  WaitList waiters_;
};

using Latch = BasicLatch<Simulation>;

namespace detail {
inline Task run_and_count_down(Task t, Latch& latch) {
  co_await std::move(t);
  latch.count_down();
}
}  // namespace detail

/// Runs all tasks concurrently; completes when the last one finishes.
/// Exceptions inside any task are fatal (they surface from Simulation::run),
/// matching MPI's error-aborts-the-job model.
inline Task when_all(Simulation& sim, std::vector<Task> tasks) {
  Latch latch(sim, static_cast<std::int64_t>(tasks.size()));
  for (auto& t : tasks) {
    sim.spawn(detail::run_and_count_down(std::move(t), latch));
  }
  co_await latch.wait();
}

}  // namespace zipper::sim
