#include "sim/simulation.hpp"

#include <cassert>

namespace zipper::sim {

Simulation::~Simulation() {
  // Drop any still-queued events first (their coroutines are owned by
  // roots_ or by parent frames reachable from roots_), then destroy the
  // roots still parked.
  queue_.clear();
  roots_.destroy_all();
}

void Simulation::refill_pool() {
  auto chunk = std::make_unique<SchedNode[]>(kPoolChunk);
  for (std::size_t i = 0; i < kPoolChunk; ++i) {
    chunk[i].pooled = true;
    chunk[i].next = free_;
    free_ = &chunk[i];
  }
  pool_chunks_.push_back(std::move(chunk));
}

void Simulation::spawn(Task task) {
  Task::Handle h = task.release();
  assert(h && "spawn of an empty task");
  roots_.adopt(h);
  schedule_now(h);
}

namespace {
thread_local Simulation* t_current_sim = nullptr;
}  // namespace

Simulation* Simulation::current() noexcept { return t_current_sim; }

void Simulation::run_loop(Time deadline) {
  stop_requested_ = false;
  Simulation* const prev = t_current_sim;
  t_current_sim = this;
  struct Restore {
    Simulation** slot;
    Simulation* prev;
    ~Restore() { *slot = prev; }
  } restore{&t_current_sim, prev};
  Time t;
  SchedNode* n;
  while (!stop_requested_ && (n = queue_.pop(now_, deadline, t)) != nullptr) {
    const std::coroutine_handle<> h = n->h;
    if (n->pooled) release_node(n);
    now_ = t;
    ++dispatched_;
    h.resume();
  }
  roots_.rethrow_failure();
}

Time Simulation::run() {
  run_loop(BucketQueue::kNoDeadline);
  return now_;
}

Time Simulation::run_until(Time deadline) {
  run_loop(deadline);
  if (queue_.empty() && now_ < deadline) now_ = deadline;
  return now_;
}

}  // namespace zipper::sim
