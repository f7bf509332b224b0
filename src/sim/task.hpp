// Coroutine task type for simulated processes.
//
// A `Task` is an eager-free (initially suspended) coroutine. There are two
// ways to run one:
//   * `co_await child_task()` from another Task: suspends the parent, runs the
//     child to completion (possibly across many simulated-time suspensions),
//     then resumes the parent via symmetric transfer. The awaiting expression
//     owns the child frame.
//   * `Simulation::spawn(std::move(task))`: detaches the task as a root
//     simulated process; the Simulation's RootSet owns the frame and the
//     Simulation schedules its first resume at the current simulated time.
//
// A detached root reaps itself: at its final suspend it unlinks from its
// RootSet and destroys its own frame, so a finished process costs nothing
// after its last event and no scheduler ever sweeps for finished roots.
//
// Exceptions thrown inside a Task are captured and re-thrown at the awaiter
// (for child tasks) or out of the scheduler's run() (for root tasks).
#pragma once

#include <coroutine>
#include <cstddef>
#include <exception>
#include <utility>

namespace zipper::sim {

class RootSet;

class Task {
 public:
  struct promise_type;
  using Handle = std::coroutine_handle<promise_type>;

  /// A root's link in its RootSet's circular list; null in a child task.
  struct RootLink {
    RootLink* prev = nullptr;
    RootLink* next = nullptr;
  };

  struct promise_type : RootLink {
    // A child resumes `continuation` when it finishes. A detached root has
    // none, so the same slot names the RootSet that owns it.
    union {
      std::coroutine_handle<> continuation{};
      RootSet* owner;
    };
    std::exception_ptr exception;

    Task get_return_object() { return Task{Handle::from_promise(*this)}; }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() noexcept { return false; }
      std::coroutine_handle<> await_suspend(Handle h) noexcept;
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_void() noexcept {}
    void unhandled_exception() noexcept { exception = std::current_exception(); }
  };

  Task() = default;
  explicit Task(Handle h) : handle_(h) {}
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  ~Task() { destroy(); }

  bool valid() const noexcept { return handle_ != nullptr; }
  bool done() const noexcept { return handle_ && handle_.done(); }
  Handle handle() const noexcept { return handle_; }

  /// Releases ownership of the coroutine frame (used by Simulation::spawn).
  Handle release() noexcept { return std::exchange(handle_, nullptr); }

  /// Awaiting a Task starts it and suspends the awaiter until it completes.
  auto operator co_await() && noexcept {
    struct Awaiter {
      Handle child;
      bool await_ready() const noexcept { return !child || child.done(); }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) noexcept {
        child.promise().continuation = parent;
        return child;  // symmetric transfer: run the child now
      }
      void await_resume() const {
        if (child && child.promise().exception) {
          std::rethrow_exception(child.promise().exception);
        }
      }
      ~Awaiter() {
        if (child) child.destroy();
      }
      Awaiter(const Awaiter&) = delete;
      Awaiter& operator=(const Awaiter&) = delete;
      explicit Awaiter(Handle h) noexcept : child(h) {}
    };
    return Awaiter{release()};
  }

 private:
  void destroy() noexcept {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  Handle handle_;
};

/// The detached root coroutines of one scheduler (Simulation or
/// EpollExecutor), as an intrusive list through their promises: O(1) to
/// adopt, to reap and to count. A root that ends with an exception keeps the
/// first one here and raises the scheduler's stop flag, so the run ends after
/// that event and the scheduler rethrows it.
class RootSet {
 public:
  explicit RootSet(bool& stop_flag) noexcept : stop_(&stop_flag) {
    head_.prev = head_.next = &head_;
  }
  RootSet(const RootSet&) = delete;
  RootSet& operator=(const RootSet&) = delete;
  ~RootSet() { destroy_all(); }

  /// Takes ownership of `h` as a root; the frame reaps itself when it ends.
  void adopt(Task::Handle h) noexcept {
    Task::promise_type& p = h.promise();
    p.owner = this;
    p.prev = head_.prev;
    p.next = &head_;
    head_.prev->next = &p;
    head_.prev = &p;
    ++size_;
  }

  /// Roots that have not finished.
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// Rethrows, once, the first exception a root ended with.
  void rethrow_failure() {
    if (failure_) std::rethrow_exception(std::exchange(failure_, nullptr));
  }

  /// Destroys the roots still parked, in spawn order.
  void destroy_all() noexcept {
    while (head_.next != &head_) {
      auto* p = static_cast<Task::promise_type*>(head_.next);
      unlink(*p);
      Task::Handle::from_promise(*p).destroy();
    }
  }

 private:
  friend struct Task::promise_type::FinalAwaiter;

  void unlink(Task::RootLink& l) noexcept {
    l.prev->next = l.next;
    l.next->prev = l.prev;
    --size_;
  }

  /// A root at its final suspend: unlink it, keep its exception, free it.
  void reap(Task::Handle h) noexcept {
    Task::promise_type& p = h.promise();
    unlink(p);
    if (p.exception) {
      if (!failure_) failure_ = std::move(p.exception);
      *stop_ = true;
    }
    h.destroy();
  }

  Task::RootLink head_;
  std::size_t size_ = 0;
  std::exception_ptr failure_;
  bool* stop_;
};

inline std::coroutine_handle<> Task::promise_type::FinalAwaiter::await_suspend(
    Handle h) noexcept {
  promise_type& p = h.promise();
  if (p.next) {  // a detached root
    p.owner->reap(h);
    return std::noop_coroutine();
  }
  return p.continuation ? p.continuation : std::noop_coroutine();
}

}  // namespace zipper::sim
