#include "core/exec/epoll.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <cassert>
#include <cerrno>
#include <cstring>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <system_error>

namespace zipper::core::exec {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

}  // namespace

sim::Time EpollExecutor::raw_now() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<sim::Time>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

EpollExecutor::EpollExecutor() {
  epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epfd_ < 0) throw_errno("epoll_create1");
  timerfd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  if (timerfd_ < 0) throw_errno("timerfd_create");
  wakefd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wakefd_ < 0) throw_errno("eventfd");
  for (const int fd : {timerfd_, wakefd_}) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      throw_errno("epoll_ctl(internal fd)");
    }
  }
  t0_ = raw_now();
}

EpollExecutor::~EpollExecutor() {
  // A blocking call in flight works on a parked frame: finish it first.
  worker_ = {};
  // Destroy leftover root frames (suspended coroutines abandoned by an
  // exception or an early teardown). Parked waitlist entries in channels and
  // fd records reference these frames but are never resumed again; frame
  // destruction recursively frees nested child frames via their awaiters.
  roots_.destroy_all();
  if (wakefd_ >= 0) ::close(wakefd_);
  if (timerfd_ >= 0) ::close(timerfd_);
  if (epfd_ >= 0) ::close(epfd_);
}

void EpollExecutor::spawn(sim::Task t) {
  sim::Task::Handle h = t.release();
  if (!h) return;
  roots_.adopt(h);
  schedule(h);
}

void EpollExecutor::post(std::coroutine_handle<> h) {
  bool was_empty;
  {
    std::lock_guard lk(remote_m_);
    was_empty = remote_.empty();
    remote_.push_back(h);
  }
  if (was_empty) {
    // The loop drains the list after reading the eventfd, so a post that
    // lands after that read finds the list empty again and writes anew.
    const std::uint64_t one = 1;
    [[maybe_unused]] ssize_t r = ::write(wakefd_, &one, sizeof(one));
  }
}

void EpollExecutor::drain_remote() {
  std::uint64_t ticks = 0;
  [[maybe_unused]] ssize_t r = ::read(wakefd_, &ticks, sizeof(ticks));
  {
    std::lock_guard lk(remote_m_);
    remote_batch_.swap(remote_);  // both keep their capacity: no allocation
  }
  for (auto h : remote_batch_) schedule(h);
  remote_batch_.clear();
}

void EpollExecutor::submit(BlockingAwaiter* call) {
  add_remote_waiter();
  std::lock_guard lk(calls_m_);
  if (!worker_.joinable()) {
    worker_ = std::jthread([this](std::stop_token stop) { work(stop); });
  }
  calls_.push_back(call);
  calls_cv_.notify_one();
}

void EpollExecutor::work(std::stop_token stop) {
  std::unique_lock lk(calls_m_);
  while (calls_cv_.wait(lk, stop, [&] { return !calls_.empty(); })) {
    BlockingAwaiter* call = calls_.front();
    calls_.pop_front();
    lk.unlock();
    try {
      call->fn();
    } catch (...) {
      call->error = std::current_exception();
    }
    post(call->h);  // `call` lives in the frame this resumes: last use
    lk.lock();
  }
}


void EpollExecutor::arm_io(IoAwaiter* aw, std::coroutine_handle<> h) {
  auto [it, fresh] = fd_waits_.try_emplace(aw->fd);
  FdWait& w = it->second;
  if (aw->write) {
    assert(!w.writer && "two coroutines awaiting writability of one fd");
    w.writer = aw;
    w.writer_h = h;
  } else {
    assert(!w.reader && "two coroutines awaiting readability of one fd");
    w.reader = aw;
    w.reader_h = h;
  }
  update_epoll(aw->fd, w, !fresh);
}

void EpollExecutor::update_epoll(int fd, FdWait& w, bool existed) {
  std::uint32_t events = 0;
  if (w.reader) events |= EPOLLIN | EPOLLRDHUP;
  if (w.writer) events |= EPOLLOUT;
  if (events == 0) {
    ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
    fd_waits_.erase(fd);
    return;
  }
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epfd_, existed ? EPOLL_CTL_MOD : EPOLL_CTL_ADD, fd, &ev) <
      0) {
    throw_errno("epoll_ctl");
  }
}

void EpollExecutor::dispatch_fd(int fd, std::uint32_t events) {
  auto it = fd_waits_.find(fd);
  if (it == fd_waits_.end()) return;
  FdWait& w = it->second;
  // Errors and hangups wake both directions: the parked coroutine retries
  // its non-blocking syscall and observes the failure itself.
  const bool err = events & (EPOLLERR | EPOLLHUP);
  if (w.reader && (err || (events & (EPOLLIN | EPOLLRDHUP)))) {
    schedule(w.reader_h);
    w.reader = nullptr;
    w.reader_h = {};
  }
  if (w.writer && (err || (events & EPOLLOUT))) {
    schedule(w.writer_h);
    w.writer = nullptr;
    w.writer_h = {};
  }
  update_epoll(fd, w, true);
}

void EpollExecutor::cancel_fd(int fd) {
  auto it = fd_waits_.find(fd);
  if (it == fd_waits_.end()) return;
  FdWait& w = it->second;
  if (w.reader) {
    w.reader->ok = false;
    schedule(w.reader_h);
    w.reader = nullptr;
    w.reader_h = {};
  }
  if (w.writer) {
    w.writer->ok = false;
    schedule(w.writer_h);
    w.writer = nullptr;
    w.writer_h = {};
  }
  update_epoll(fd, w, true);
}

void EpollExecutor::expire_timers() {
  const sim::Time t = now();
  while (!timers_.empty() && timers_.top().deadline <= t) {
    schedule(timers_.top().h);
    timers_.pop();
  }
}

void EpollExecutor::drain_ready() {
  // Drain one batch: resumes scheduled during this pass (wake chains) run in
  // the same pass, but a yield() re-enqueues behind them — FIFO fairness.
  while (!stop_ && !ready_.empty()) {
    auto h = ready_.front();
    ready_.pop_front();
    h.resume();
  }
}

void EpollExecutor::run() {
  constexpr int kMaxEvents = 128;
  epoll_event evs[kMaxEvents];
  stop_ = false;
  while (true) {
    drain_ready();
    if (stop_) worker_ = {};  // no blocking call outlives a failed run()
    roots_.rethrow_failure();
    if (roots_.empty()) return;

    // Park on epoll until an fd or the nearest timer fires. Timer deadlines
    // are absolute CLOCK_MONOTONIC via TFD_TIMER_ABSTIME, so ns-granular
    // sleeps don't round through epoll_wait's millisecond timeout.
    if (timers_.empty() && fd_waits_.empty() && remote_waiters_ == 0) {
      throw std::runtime_error(
          "EpollExecutor: deadlock — " + std::to_string(roots_.size()) +
          " root coroutine(s) parked with no timer, fd or other thread to "
          "wake them");
    }
    itimerspec its{};
    if (!timers_.empty()) {
      const sim::Time abs = timers_.top().deadline + t0_;
      its.it_value.tv_sec = abs / 1'000'000'000;
      its.it_value.tv_nsec = abs % 1'000'000'000;
      // A deadline of exactly 0 would disarm; bump to the smallest future.
      if (its.it_value.tv_sec == 0 && its.it_value.tv_nsec == 0) {
        its.it_value.tv_nsec = 1;
      }
    }
    if (::timerfd_settime(timerfd_, TFD_TIMER_ABSTIME, &its, nullptr) < 0) {
      throw_errno("timerfd_settime");
    }

    int n = ::epoll_wait(epfd_, evs, kMaxEvents, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("epoll_wait");
    }
    for (int i = 0; i < n; ++i) {
      if (evs[i].data.fd == timerfd_) {
        std::uint64_t ticks = 0;
        [[maybe_unused]] ssize_t r =
            ::read(timerfd_, &ticks, sizeof(ticks));  // rearm; value unused
        continue;
      }
      if (evs[i].data.fd == wakefd_) {
        drain_remote();
        continue;
      }
      dispatch_fd(evs[i].data.fd, evs[i].events);
    }
    expire_timers();
  }
}

}  // namespace zipper::core::exec
