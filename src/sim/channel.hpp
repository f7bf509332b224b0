// Suspending MPSC/MPMC channel with optional capacity bound.
//
// A template over its scheduler, like the primitives in sync.hpp: the default
// sim::Simulation is the DES channel, and core::exec::EpollExecutor runs the
// same code on the real-I/O loop (exec::EpChannel<T>). The scheduler supplies
// `schedule_node_now(SchedNode*)`, the only wake hook a channel calls.
//
// Semantics mirror a Go-style channel adapted to the discrete-event world:
//   * `co_await ch.send(v)` — completes immediately if a receiver is parked
//     or buffer space exists; otherwise suspends the sender (backpressure).
//     Yields `true` on delivery, `false` only if the channel was closed while
//     the sender was parked (the value is dropped) — so a parked sender can
//     never deadlock on close().
//   * `co_await ch.recv()` — yields std::optional<T>; std::nullopt once the
//     channel is closed *and* drained.
//
// Handoff rule: when a sender finds a parked receiver, the value is delivered
// directly into the receiver's awaiter slot (never through the buffer), so a
// later same-timestamp recv() cannot steal it. FIFO order is preserved among
// both senders and receivers.
//
// Hot-path note: waiters are intrusive singly-linked nodes embedded in the
// awaiter (which lives in the suspended coroutine's frame), and buffered
// values live in a recycled power-of-two ring — park, wake, and buffered
// send/recv all run without heap allocation in steady state. The ring starts
// empty and doubles only when the high-water mark rises, so a bounded
// channel costs what it has held at most, not its bound.
#pragma once

#include <cassert>
#include <coroutine>
#include <optional>
#include <utility>

#include "common/ring_buffer.hpp"
#include "sim/simulation.hpp"

namespace zipper::sim {

template <typename T, typename Sched = Simulation>
class Channel {
 public:
  /// capacity == 0 means unbounded. The ring allocates nothing up front and
  /// grows on demand; `capacity` bounds what it buffers, never what it holds.
  explicit Channel(Sched& sched, std::size_t capacity = 0)
      : sched_(&sched), capacity_(capacity) {}
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  struct RecvAwaiter {
    Channel* ch;
    std::optional<T> slot;
    bool closed_signal = false;
    RecvAwaiter* next_waiter = nullptr;
    SchedNode node{};

    bool await_ready() {
      if (!ch->buffer_.empty()) {
        slot = ch->buffer_.take_front();
        ch->promote_waiting_sender();
        return true;
      }
      if (ch->closed_) {
        closed_signal = true;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      node.h = h;
      ch->recv_waiters_.push_back(this);
    }
    std::optional<T> await_resume() {
      if (closed_signal) return std::nullopt;
      return std::move(slot);
    }
  };

  struct SendAwaiter {
    Channel* ch;
    T value;
    bool delivered = true;
    SendAwaiter* next_waiter = nullptr;
    SchedNode node{};

    bool await_ready() {
      assert(!ch->closed_ && "send on closed channel");
      if (RecvAwaiter* r = ch->recv_waiters_.pop_front()) {
        r->slot = std::move(value);
        ch->sched_->schedule_node_now(&r->node);
        return true;
      }
      if (ch->capacity_ == 0 || ch->buffer_.size() < ch->capacity_) {
        ch->buffer_.push_back(std::move(value));
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      node.h = h;
      ch->send_waiters_.push_back(this);
    }
    /// True if the value was delivered (or buffered); false if the channel
    /// closed while this sender was parked.
    bool await_resume() const noexcept { return delivered; }
  };

  /// Awaitable send; applies backpressure when the channel is bounded & full.
  SendAwaiter send(T value) { return SendAwaiter{this, std::move(value)}; }

  /// Non-suspending send; returns false instead of blocking when full.
  bool try_send(T value) {
    assert(!closed_ && "send on closed channel");
    if (RecvAwaiter* r = recv_waiters_.pop_front()) {
      r->slot = std::move(value);
      sched_->schedule_node_now(&r->node);
      return true;
    }
    if (capacity_ == 0 || buffer_.size() < capacity_) {
      buffer_.push_back(std::move(value));
      return true;
    }
    return false;
  }

  /// Awaitable receive; std::nullopt after close() once drained.
  RecvAwaiter recv() { return RecvAwaiter{this, std::nullopt}; }

  /// Non-suspending receive: takes a buffered value if one exists (promoting
  /// a parked sender into the freed slot, like a completed recv), otherwise
  /// returns std::nullopt without parking. Lets a consumer poll a peer's
  /// channel — the primitive behind consumer-side work stealing.
  std::optional<T> try_recv() {
    if (buffer_.empty()) return std::nullopt;
    T v = buffer_.take_front();
    promote_waiting_sender();
    return v;
  }

  /// Closes the channel: parked receivers wake with std::nullopt (buffered
  /// values remain receivable first), and parked senders wake with their send
  /// reporting failure — a bounded channel that is closed while full can no
  /// longer strand its producers. Sends *initiated* after close are a
  /// programming error.
  void close() {
    closed_ = true;
    if (buffer_.empty()) {
      while (RecvAwaiter* r = recv_waiters_.pop_front()) {
        r->closed_signal = true;
        sched_->schedule_node_now(&r->node);
      }
    }
    while (SendAwaiter* s = send_waiters_.pop_front()) {
      s->delivered = false;
      sched_->schedule_node_now(&s->node);
    }
  }

  std::size_t size() const noexcept { return buffer_.size(); }
  bool empty() const noexcept { return buffer_.empty(); }
  bool closed() const noexcept { return closed_; }
  std::size_t capacity() const noexcept { return capacity_; }

 private:
  // Called after a buffered item was consumed: moves one parked sender's value
  // into the freed buffer slot and resumes that sender.
  void promote_waiting_sender() {
    if (SendAwaiter* s = send_waiters_.pop_front()) {
      buffer_.push_back(std::move(s->value));
      sched_->schedule_node_now(&s->node);
    }
  }

  Sched* sched_;
  std::size_t capacity_;
  bool closed_ = false;
  common::RingBuffer<T> buffer_;
  IntrusiveFifo<RecvAwaiter> recv_waiters_;
  IntrusiveFifo<SendAwaiter> send_waiters_;
};

}  // namespace zipper::sim
