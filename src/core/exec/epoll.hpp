// EpollExecutor: the unified-execution adapter over a real event loop.
//
// One of the two executors (docs/runtime.md): a single-threaded epoll loop
// whose awaitables *genuinely suspend*, like the virtual-time executor's. A
// coroutine that would block parks its handle on a waitlist (fd readiness,
// timer heap, or a primitive's queue) and the loop resumes it when the event
// fires, so one OS thread multiplexes thousands of concurrent coupling
// sessions (zipperd) or every endpoint of an in-process core::rt::Runtime.
//
// Contract surface (core/exec):
//   spawn(Task)        — detach a root coroutine; the executor owns its frame
//   now()              — CLOCK_MONOTONIC ns since construction (sim::Time)
//   sleep_until(t)     — suspending timer parked on a min-heap + timerfd
//   yield()            — re-enqueue at the back of the ready queue
// plus the I/O primitives the net binding is built from:
//   wait_readable(fd) / wait_writable(fd) — suspend until epoll readiness;
//   resume with `false` after cancel_fd() (used for shutdown wake-ups).
//
// Sync primitives: the loop defines none of its own. It supplies the two wake
// hooks the shared sim primitives call — schedule_node_now(SchedNode*) and
// wake_all_now(WaitList&), both appending to the ready queue in FIFO order —
// so sim::Channel, BasicMutex, BasicCondVar, BasicSemaphore and BasicLatch
// instantiated on EpollExecutor are the very code the DES runs.
//
// Threading: the loop, every primitive, and every spawned coroutine run on
// the thread that calls run(). The one thread-safe entry is post(h), which
// exec::Handoff (handoff.hpp) and blocking(fn) build on. A signal handler
// must not post (it takes a mutex); zipperd's SIGTERM writes an eventfd
// watched with wait_readable().
#pragma once

#include <condition_variable>
#include <coroutine>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <stop_token>
#include <thread>
#include <unordered_map>
#include <vector>

#include "sim/channel.hpp"
#include "sim/event_queue.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace zipper::core::exec {

class EpollExecutor {
 public:
  EpollExecutor();
  ~EpollExecutor();
  EpollExecutor(const EpollExecutor&) = delete;
  EpollExecutor& operator=(const EpollExecutor&) = delete;

  /// Monotonic ns since construction — the executor's sim::Time axis.
  sim::Time now() const noexcept { return raw_now() - t0_; }

  /// Absolute CLOCK_MONOTONIC ns. System-wide on Linux, so two processes on
  /// one host can timestamp a block at send and measure latency at analyze.
  static sim::Time raw_now() noexcept;

  /// Detaches `t` as a root coroutine owned by this executor; first resume
  /// happens on the next loop turn. Root exceptions rethrow out of run().
  void spawn(sim::Task t);

  /// Resumes `h` on the next loop turn; must be called from the loop thread.
  void schedule(std::coroutine_handle<> h) { ready_.push_back(h); }

  /// Thread-safe: resumes the parked `h` on the loop thread, in post order.
  /// A mutex-guarded list plus an eventfd watched next to the timerfd; the
  /// eventfd is written only when the list goes from empty to non-empty (a
  /// burst costs one wake), and the loop drains the list once per turn.
  void post(std::coroutine_handle<> h);

  /// Loop thread: a coroutine parks (add) or resumes (remove) waiting for
  /// another thread to post() it; meanwhile an otherwise idle loop sleeps
  /// instead of reporting a deadlock.
  void add_remote_waiter() noexcept { ++remote_waiters_; }
  void remove_remote_waiter() noexcept { --remote_waiters_; }

  /// The shared primitives' wake hooks (sim/sync.hpp). The loop copies the
  /// handle out, so the node is free as soon as the call returns.
  void schedule_node_now(sim::SchedNode* n) { schedule(n->h); }
  void wake_all_now(sim::WaitList& l) {
    while (sim::SchedNode* n = l.pop_front()) schedule(n->h);
  }

  struct SleepAwaiter {
    EpollExecutor* ex;
    sim::Time deadline;
    bool await_ready() const noexcept { return deadline <= ex->now(); }
    void await_suspend(std::coroutine_handle<> h) {
      ex->timers_.push(TimerEntry{deadline, ex->timer_seq_++, h});
    }
    void await_resume() const noexcept {}
  };
  SleepAwaiter sleep_until(sim::Time t) noexcept { return {this, t}; }

  struct YieldAwaiter {
    EpollExecutor* ex;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { ex->schedule(h); }
    void await_resume() const noexcept {}
  };
  YieldAwaiter yield() noexcept { return {this}; }

  // ------------------------------------------------------- fd readiness ----
  // Callers follow the non-blocking idiom: attempt the syscall first and
  // await only on EAGAIN. await_resume() is `true` on readiness and `false`
  // when the wait was torn down via cancel_fd().

  struct IoAwaiter {
    EpollExecutor* ex;
    int fd;
    bool write;
    bool ok = true;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { ex->arm_io(this, h); }
    bool await_resume() const noexcept { return ok; }
  };
  IoAwaiter wait_readable(int fd) noexcept { return {this, fd, false}; }
  IoAwaiter wait_writable(int fd) noexcept { return {this, fd, true}; }

  /// Wakes any coroutine parked on `fd` with a `false` result and drops the
  /// fd from the epoll set. Call before close()ing a watched fd.
  void cancel_fd(int fd);

  // ------------------------------------------------------ blocking calls ----

  /// Awaitable: runs `fn` on the loop's file worker thread, then resumes the
  /// caller on the loop; an exception from `fn` rethrows there. For file
  /// calls, which block (creating a file takes ~20 to over 500 µs on ext4)
  /// and on the loop would stall every coroutine. The one worker runs calls
  /// in order, starts at the first, and stops (dropping calls not yet
  /// started) before run() rethrows a failure and in ~EpollExecutor.
  struct BlockingAwaiter {
    EpollExecutor* ex;
    std::function<void()> fn;
    std::exception_ptr error{};
    std::coroutine_handle<> h{};
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> c) {
      h = c;
      ex->submit(this);
    }
    void await_resume() {
      ex->remove_remote_waiter();
      if (error) std::rethrow_exception(error);
    }
  };
  BlockingAwaiter blocking(std::function<void()> fn) {
    return {this, std::move(fn)};
  }

  /// Runs the loop until every root coroutine finished. A root exception
  /// ends the loop after that resume and rethrows (remaining roots are
  /// destroyed by ~). Finished roots free themselves as they end.
  void run();

  std::size_t roots_alive() const noexcept { return roots_.size(); }

 private:
  struct TimerEntry {
    sim::Time deadline;
    std::uint64_t seq;  // FIFO among equal deadlines
    std::coroutine_handle<> h;
    bool operator>(const TimerEntry& o) const noexcept {
      return deadline != o.deadline ? deadline > o.deadline : seq > o.seq;
    }
  };
  struct FdWait {
    IoAwaiter* reader = nullptr;
    IoAwaiter* writer = nullptr;
    std::coroutine_handle<> reader_h{};
    std::coroutine_handle<> writer_h{};
  };

  void arm_io(IoAwaiter* aw, std::coroutine_handle<> h);
  void update_epoll(int fd, FdWait& w, bool existed);
  void dispatch_fd(int fd, std::uint32_t events);
  void expire_timers();
  void drain_ready();
  void drain_remote();
  void submit(BlockingAwaiter* call);
  void work(std::stop_token stop);

  int epfd_ = -1;
  int timerfd_ = -1;
  int wakefd_ = -1;  // eventfd behind post()
  sim::Time t0_ = 0;
  std::deque<std::coroutine_handle<>> ready_;
  std::priority_queue<TimerEntry, std::vector<TimerEntry>,
                      std::greater<TimerEntry>>
      timers_;
  std::uint64_t timer_seq_ = 0;
  std::unordered_map<int, FdWait> fd_waits_;
  std::size_t remote_waiters_ = 0;
  std::mutex remote_m_;
  std::vector<std::coroutine_handle<>> remote_;  // guarded by remote_m_
  std::vector<std::coroutine_handle<>> remote_batch_;  // loop thread only
  std::mutex calls_m_;
  std::condition_variable_any calls_cv_;
  std::deque<BlockingAwaiter*> calls_;  // guarded by calls_m_
  std::jthread worker_;  // runs blocking() calls; `= {}` stops and joins it
  bool stop_ = false;  // a root failed: drain_ready stops at once
  sim::RootSet roots_{stop_};
};

/// The shared channel on this loop; kept as a name for perfbench's handoff rung.
template <typename T>
using EpChannel = sim::Channel<T, EpollExecutor>;

}  // namespace zipper::core::exec
