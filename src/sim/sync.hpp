// Suspending synchronization primitives: FIFO mutex, condition variable, and
// counting semaphore. All are single-"OS-thread" objects living inside one
// scheduler; fairness is strict FIFO to keep runs deterministic.
//
// Each primitive is a template over its scheduler `Sched`, which supplies the
// two wake hooks the primitives call: `schedule_node_now(SchedNode*)` and
// `wake_all_now(WaitList&)`. The default, sim::Simulation, keeps the DES
// spellings (SimMutex, SimCondVar, SimSemaphore); core::exec::EpollExecutor
// instantiates the same code on the real-I/O loop.
//
// Waiters are intrusive SchedNodes embedded in the awaiter frames (see
// event_queue.hpp): parking and waking never allocate, and under the DES
// notify_all splices the whole waiter list into the event queue in O(1).
#pragma once

#include <cassert>
#include <coroutine>
#include <cstdint>

#include "sim/simulation.hpp"
#include "sim/task.hpp"

namespace zipper::sim {

template <typename Sched = Simulation>
class BasicMutex {
 public:
  explicit BasicMutex(Sched& sched) : sched_(&sched) {}
  BasicMutex(const BasicMutex&) = delete;
  BasicMutex& operator=(const BasicMutex&) = delete;

  struct LockAwaiter {
    BasicMutex* m;
    SchedNode node{};
    bool await_ready() {
      if (!m->locked_) {
        m->locked_ = true;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      node.h = h;
      m->waiters_.push_back(&node);
    }
    void await_resume() const noexcept {}
  };

  /// co_await lock(); ownership transfers FIFO on unlock().
  LockAwaiter lock() { return LockAwaiter{this}; }

  bool try_lock() {
    if (locked_) return false;
    locked_ = true;
    return true;
  }

  void unlock() {
    assert(locked_ && "unlock of unlocked mutex");
    if (SchedNode* n = waiters_.pop_front()) {
      // Ownership passes directly to the first waiter; locked_ stays true.
      sched_->schedule_node_now(n);
    } else {
      locked_ = false;
    }
  }

  bool locked() const noexcept { return locked_; }

 private:
  Sched* sched_;
  bool locked_ = false;
  WaitList waiters_;
};

template <typename Sched = Simulation>
class BasicCondVar {
 public:
  explicit BasicCondVar(Sched& sched) : sched_(&sched) {}
  BasicCondVar(const BasicCondVar&) = delete;
  BasicCondVar& operator=(const BasicCondVar&) = delete;

  /// Atomically releases `m`, parks, and re-acquires `m` before returning.
  /// Standard predicate-loop usage:
  ///   while (!pred()) co_await cv.wait(m);
  Task wait(BasicMutex<Sched>& m) {
    m.unlock();
    co_await Park{this};
    co_await m.lock();
  }

  void notify_one() {
    if (SchedNode* n = waiters_.pop_front()) sched_->schedule_node_now(n);
  }

  void notify_all() { sched_->wake_all_now(waiters_); }

  std::size_t waiter_count() const noexcept { return waiters_.size(); }

 private:
  struct Park {
    BasicCondVar* cv;
    SchedNode node{};
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      node.h = h;
      cv->waiters_.push_back(&node);
    }
    void await_resume() const noexcept {}
  };

  Sched* sched_;
  WaitList waiters_;
};

template <typename Sched = Simulation>
class BasicSemaphore {
 public:
  BasicSemaphore(Sched& sched, std::int64_t initial)
      : sched_(&sched), count_(initial) {}
  BasicSemaphore(const BasicSemaphore&) = delete;
  BasicSemaphore& operator=(const BasicSemaphore&) = delete;

  struct AcquireAwaiter {
    BasicSemaphore* s;
    SchedNode node{};
    bool await_ready() {
      if (s->count_ > 0) {
        --s->count_;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      node.h = h;
      s->waiters_.push_back(&node);
    }
    void await_resume() const noexcept {}
  };

  AcquireAwaiter acquire() { return AcquireAwaiter{this}; }

  void release(std::int64_t n = 1) {
    count_ += n;
    while (count_ > 0 && !waiters_.empty()) {
      --count_;
      sched_->schedule_node_now(waiters_.pop_front());
    }
  }

  std::int64_t available() const noexcept { return count_; }

 private:
  Sched* sched_;
  std::int64_t count_;
  WaitList waiters_;
};

using SimMutex = BasicMutex<Simulation>;
using SimCondVar = BasicCondVar<Simulation>;
using SimSemaphore = BasicSemaphore<Simulation>;

}  // namespace zipper::sim
