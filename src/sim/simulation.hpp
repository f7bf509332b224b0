// Deterministic discrete-event simulation kernel.
//
// Determinism contract: events fire in (time, sequence-number) order, where
// sequence numbers are assigned at scheduling time. No wall-clock, no global
// RNG. Two runs of the same program produce identical event orders and
// identical simulated timestamps.
//
// Scheduling is a three-tier bucketed queue (see event_queue.hpp): events in
// the current 2048-ns window go to per-nanosecond FIFO buckets, events up to
// 33.5 ms ahead to one list per window, and later ones to a heap. Pushes are
// O(1) except into the heap. An older tier always goes first at equal time,
// so dispatch is exactly (time, scheduling order). Awaiters
// embed their SchedNode in the coroutine frame, so the steady-state
// schedule/dispatch path performs no allocation.
//
// Memory follows use: spawned roots live in a RootSet (task.hpp) and each
// one destroys its own frame at the event it finishes in, and channels
// (channel.hpp) grow their rings on demand up to their bound.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace zipper::sim {

class Simulation {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;
  ~Simulation();

  /// Current simulated time.
  Time now() const noexcept { return now_; }

  /// Schedules `h` to resume at absolute time `t` (must be >= now()).
  /// Uses a pool-backed node; prefer the schedule_node_* overloads from
  /// awaiters that can embed their own SchedNode.
  void schedule_at(Time t, std::coroutine_handle<> h) {
    SchedNode* n = acquire_node();
    n->h = h;
    schedule_node_at(t, n);
  }

  /// Schedules `h` to resume after `delay` nanoseconds.
  void schedule_after(Time delay, std::coroutine_handle<> h) {
    schedule_at(now_ + delay, h);
  }

  /// Schedules `h` to resume at the current time, after already-queued events
  /// at this timestamp.
  void schedule_now(std::coroutine_handle<> h) { schedule_at(now_, h); }

  /// Zero-allocation variants: `n` is an externally-owned node (typically
  /// embedded in the awaiter's coroutine frame) with n->h already set. The
  /// node must stay alive until its event is dispatched.
  void schedule_node_at(Time t, SchedNode* n) {
    assert_owner();
    queue_.push(n, t, now_);
  }
  void schedule_node_after(Time delay, SchedNode* n) {
    assert_owner();
    queue_.push(n, now_ + delay, now_);
  }
  void schedule_node_now(SchedNode* n) {
    assert_owner();
    queue_.push(n, now_, now_);
  }

  /// Wakes every waiter parked on `l` at the current time with a single O(1)
  /// list splice; FIFO park order becomes scheduling order.
  void wake_all_now(WaitList& l) {
    assert_owner();
    queue_.splice_now(l, now_);
  }

  /// Detaches `task` as a root simulated process; its first resume is
  /// scheduled at the current simulated time, and its frame is freed at the
  /// event it finishes in.
  void spawn(Task task);

  /// The Simulation currently dispatching events on this thread, or nullptr.
  /// Shard workers use it to assert that no wake ever crosses a shard.
  static Simulation* current() noexcept;

  /// Awaitable: suspend the calling coroutine for `d` simulated nanoseconds.
  auto delay(Time d) noexcept {
    struct Awaiter {
      Simulation* sim;
      Time d;
      SchedNode node{};
      bool await_ready() const noexcept { return d <= 0; }
      void await_suspend(std::coroutine_handle<> h) {
        node.h = h;
        sim->schedule_node_after(d, &node);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, d, {}};
  }

  /// Runs until the event queue drains. Returns the final simulated time.
  /// A root process that terminates with an exception ends the run after
  /// its event, and run() rethrows that exception.
  Time run();

  /// Makes run()/run_until() return after the current event completes —
  /// used by drivers whose universes contain never-ending processes (e.g.
  /// background file-system load). Cleared on the next run() call.
  void request_stop() noexcept { stop_requested_ = true; }

  /// Runs until the event queue drains or simulated time would exceed
  /// `deadline`; events after the deadline stay queued.
  Time run_until(Time deadline);

  /// Number of root processes that have not yet finished (useful for
  /// detecting deadlocks after run() returns: parked coroutines hold no
  /// queued events). O(1): finished roots unlink themselves.
  std::size_t unfinished_processes() const noexcept { return roots_.size(); }

  /// Total number of events dispatched so far.
  std::uint64_t events_dispatched() const noexcept { return dispatched_; }

  /// Number of events currently queued (all tiers).
  std::size_t events_queued() const noexcept { return queue_.size(); }

 private:
  static constexpr std::size_t kPoolChunk = 256;

  /// Every scheduling entry point checks that no wake crosses a shard: the
  /// caller runs on this Simulation's thread or on none.
  void assert_owner() const noexcept {
    assert((current() == nullptr || current() == this) &&
           "wake crosses a shard");
  }

  SchedNode* acquire_node() {
    if (!free_) refill_pool();
    SchedNode* n = free_;
    free_ = n->next;
    return n;
  }
  void release_node(SchedNode* n) noexcept {
    n->next = free_;
    free_ = n;
  }
  void refill_pool();
  void run_loop(Time deadline);

  BucketQueue queue_;
  SchedNode* free_ = nullptr;  // free list of pooled nodes
  std::vector<std::unique_ptr<SchedNode[]>> pool_chunks_;
  Time now_ = 0;
  std::uint64_t dispatched_ = 0;
  bool stop_requested_ = false;
  RootSet roots_{stop_requested_};  // a failing root raises stop_requested_
};

}  // namespace zipper::sim
