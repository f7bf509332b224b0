// Handoff<T>: the bounded hand-off between application threads and one
// EpollExecutor loop. A FIFO of at most `capacity` values under a std::mutex;
// the thread side blocks on a std::condition_variable, the loop side parks
// its one waiting coroutine, which the thread side wakes by post().
//
//   thread side                  loop side
//   put(v)  blocks while full    co_await recv()
//   take()  blocks while empty   co_await space(), then push(v)
//   wait_closed()
//   close(), set_capacity(n) from either side; after close() buffered values
//           can still be taken or received, later puts and pushes drop.
//
// With EpollExecutor::post() and its file worker, this is all the
// cross-thread code under core/. core::rt::Runtime uses one hand-off per
// producer (its inbox), one per consumer (a one-deep slot) and one whose
// close() tears the loop down.
#pragma once

#include <cassert>
#include <condition_variable>
#include <coroutine>
#include <cstddef>
#include <mutex>
#include <optional>
#include <utility>

#include "common/ring_buffer.hpp"
#include "core/exec/epoll.hpp"

namespace zipper::core::exec {

template <typename T>
class Handoff {
 public:
  Handoff(EpollExecutor& loop, std::size_t capacity)
      : loop_(&loop), capacity_(capacity) {}

  // ------------------------------------------------------- thread side ----

  /// Blocks while full. Returns false (dropping `v`) once closed.
  bool put(T v) {
    std::unique_lock lk(m_);
    cv_.wait(lk, [&] { return ready(/*for_space=*/true); });
    if (closed_) return false;
    q_.push_back(std::move(v));
    wake_loop(/*for_space=*/false);
    return true;
  }

  /// Blocks while empty; std::nullopt once closed and drained.
  std::optional<T> take() {
    std::unique_lock lk(m_);
    cv_.wait(lk, [&] { return ready(/*for_space=*/false); });
    if (q_.empty()) return std::nullopt;
    T v = q_.take_front();
    wake_loop(/*for_space=*/true);
    return v;
  }

  /// Blocks until either side closed the hand-off.
  void wait_closed() {
    std::unique_lock lk(m_);
    cv_.wait(lk, [&] { return closed_; });
  }

  void close() {
    std::lock_guard lk(m_);
    closed_ = true;
    cv_.notify_all();
    if (waiter_) loop_->post(std::exchange(waiter_, {}));
  }

  /// Changes the bound; values already queued stay, and a larger bound wakes
  /// the side waiting for room.
  void set_capacity(std::size_t capacity) {
    std::lock_guard lk(m_);
    capacity_ = capacity;
    cv_.notify_all();
    wake_loop(/*for_space=*/true);
  }

  // --------------------------------------------------------- loop side ----

  struct Wait {
    Handoff* h;
    bool for_space;
    bool parked = false;

    bool await_ready() {
      std::lock_guard lk(h->m_);
      return h->ready(for_space);
    }
    bool await_suspend(std::coroutine_handle<> c) {
      std::lock_guard lk(h->m_);
      if (h->ready(for_space)) return false;
      assert(!h->waiter_ && "two loop coroutines waiting on one hand-off");
      h->waiter_ = c;
      h->waiter_for_space_ = for_space;
      h->loop_->add_remote_waiter();
      parked = true;
      return true;
    }
    void await_resume() {
      if (parked) h->loop_->remove_remote_waiter();
    }
  };
  struct RecvAwaiter : Wait {
    std::optional<T> await_resume() {
      Wait::await_resume();
      std::lock_guard lk(this->h->m_);
      if (this->h->q_.empty()) return std::nullopt;
      this->h->cv_.notify_all();
      return this->h->q_.take_front();
    }
  };

  /// Parks while empty and open; std::nullopt once closed and drained.
  RecvAwaiter recv() { return {{this, false}}; }
  /// Parks while full and open; returns at once after close().
  Wait space() { return {this, true}; }

  /// Appends `v` without blocking (after space()); dropped once closed.
  void push(T v) {
    std::lock_guard lk(m_);
    if (closed_) return;
    q_.push_back(std::move(v));
    cv_.notify_all();
  }

 private:
  // Under m_.
  bool ready(bool for_space) const {
    return closed_ || (for_space ? q_.size() < capacity_ : !q_.empty());
  }
  void wake_loop(bool for_space) {
    if (waiter_ && waiter_for_space_ == for_space) {
      loop_->post(std::exchange(waiter_, {}));
    }
  }

  EpollExecutor* loop_;
  std::size_t capacity_;
  std::mutex m_;
  std::condition_variable cv_;
  common::RingBuffer<T> q_;
  bool closed_ = false;
  std::coroutine_handle<> waiter_{};  // the parked loop coroutine, if any
  bool waiter_for_space_ = false;
};

}  // namespace zipper::core::exec
