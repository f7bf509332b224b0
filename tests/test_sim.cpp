// Unit tests for the discrete-event engine: event ordering, coroutine task
// composition, channels and synchronization primitives (on both the DES and
// the epoll loop), bandwidth resources, and determinism of the whole kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <coroutine>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/exec/epoll.hpp"
#include "sim/channel.hpp"
#include "sim/latch.hpp"
#include "sim/resource.hpp"
#include "sim/simulation.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

using namespace zipper::sim;
using zipper::core::exec::EpollExecutor;

namespace {

Task record_at(Simulation& sim, Time t, std::vector<int>& log, int id) {
  co_await sim.delay(t);
  log.push_back(id);
}

}  // namespace

TEST(SimTime, Conversions) {
  EXPECT_EQ(from_seconds(1.0), kSecond);
  EXPECT_EQ(from_seconds(0.5), 500 * kMillisecond);
  EXPECT_DOUBLE_EQ(to_seconds(1500000000), 1.5);
  EXPECT_EQ(from_seconds(1e-9), kNanosecond);
}

TEST(Simulation, StartsAtZero) {
  Simulation sim;
  EXPECT_EQ(sim.now(), 0);
  EXPECT_EQ(sim.run(), 0);
}

TEST(Simulation, DelayAdvancesClock) {
  Simulation sim;
  Time observed = -1;
  sim.spawn([](Simulation& s, Time& obs) -> Task {
    co_await s.delay(123456);
    obs = s.now();
  }(sim, observed));
  sim.run();
  EXPECT_EQ(observed, 123456);
}

TEST(Simulation, EventsFireInTimeOrder) {
  Simulation sim;
  std::vector<int> log;
  sim.spawn(record_at(sim, 300, log, 3));
  sim.spawn(record_at(sim, 100, log, 1));
  sim.spawn(record_at(sim, 200, log, 2));
  sim.run();
  EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
}

TEST(Simulation, TiesBreakInScheduleOrder) {
  Simulation sim;
  std::vector<int> log;
  for (int i = 0; i < 8; ++i) sim.spawn(record_at(sim, 50, log, i));
  sim.run();
  EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(Simulation, ZeroDelayDoesNotSuspend) {
  Simulation sim;
  int steps = 0;
  sim.spawn([](Simulation& s, int& n) -> Task {
    co_await s.delay(0);
    ++n;
    co_await s.delay(-5);  // negative treated as zero
    ++n;
  }(sim, steps));
  sim.run();
  EXPECT_EQ(steps, 2);
}

TEST(Simulation, NestedTasksComposeSequentially) {
  Simulation sim;
  std::vector<std::string> log;

  auto child = [](Simulation& s, std::vector<std::string>& l, std::string tag,
                  Time d) -> Task {
    co_await s.delay(d);
    l.push_back(tag);
  };
  sim.spawn([](Simulation& s, std::vector<std::string>& l, auto ch) -> Task {
    l.push_back("begin");
    co_await ch(s, l, "child1", 10);
    co_await ch(s, l, "child2", 10);
    l.push_back("end");
  }(sim, log, child));
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"begin", "child1", "child2", "end"}));
  EXPECT_EQ(sim.now(), 20);
}

TEST(Simulation, DeeplyNestedTasksDoNotOverflow) {
  Simulation sim;
  // 50k-deep synchronous completion chain: verifies symmetric transfer.
  struct Rec {
    static Task go(Simulation& s, int depth, int& leaf) {
      if (depth == 0) {
        leaf = 1;
        co_return;
      }
      co_await go(s, depth - 1, leaf);
    }
  };
  int leaf = 0;
  sim.spawn(Rec::go(sim, 50000, leaf));
  sim.run();
  EXPECT_EQ(leaf, 1);
}

TEST(Simulation, ExceptionInChildPropagatesToParent) {
  Simulation sim;
  bool caught = false;
  auto thrower = [](Simulation& s) -> Task {
    co_await s.delay(5);
    throw std::runtime_error("boom");
  };
  sim.spawn([](Simulation& s, bool& c, auto th) -> Task {
    try {
      co_await th(s);
    } catch (const std::runtime_error&) {
      c = true;
    }
  }(sim, caught, thrower));
  sim.run();
  EXPECT_TRUE(caught);
}

TEST(Simulation, ExceptionInRootPropagatesFromRun) {
  Simulation sim;
  sim.spawn([](Simulation& s) -> Task {
    co_await s.delay(1);
    throw std::logic_error("root failure");
  }(sim));
  EXPECT_THROW(sim.run(), std::logic_error);
}

TEST(Simulation, RunUntilStopsAtDeadline) {
  Simulation sim;
  std::vector<int> log;
  sim.spawn(record_at(sim, 100, log, 1));
  sim.spawn(record_at(sim, 900, log, 2));
  sim.run_until(500);
  EXPECT_EQ(log, (std::vector<int>{1}));
  EXPECT_EQ(sim.unfinished_processes(), 1u);
  sim.run();
  EXPECT_EQ(log, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.unfinished_processes(), 0u);
}

TEST(Simulation, UnfinishedProcessesDetectsParked) {
  Simulation sim;
  Channel<int> never(sim);
  sim.spawn([](Channel<int>& ch) -> Task { co_await ch.recv(); }(never));
  sim.run();
  EXPECT_EQ(sim.unfinished_processes(), 1u);
}

TEST(Simulation, ManyProcessesDeterministicEventCount) {
  auto run_once = []() {
    Simulation sim;
    std::vector<int> log;
    for (int i = 0; i < 500; ++i) sim.spawn(record_at(sim, (i * 37) % 101, log, i));
    sim.run();
    return std::pair{sim.events_dispatched(), log};
  };
  auto [c1, l1] = run_once();
  auto [c2, l2] = run_once();
  EXPECT_EQ(c1, c2);
  EXPECT_EQ(l1, l2);
}

// ------------------------------------- primitives on both schedulers ------
// Channel, mutex, condvar, semaphore and latch are one implementation,
// templated over the scheduler that wakes their waiters. Every case below
// runs on the DES and on the epoll loop. Wake order must agree exactly;
// elapsed time is exact on the DES and only a lower bound on the wall clock.

namespace {

template <typename S>
struct Loop;

template <>
struct Loop<Simulation> {
  static auto pause(Simulation& s, Time d) { return s.delay(d); }
  static void expect_elapsed(Time dt, Time want) { EXPECT_EQ(dt, want); }
  static std::size_t roots(const Simulation& s) {
    return s.unfinished_processes();
  }
};

template <>
struct Loop<EpollExecutor> {
  // A timer that parks even when its deadline has already passed, so the
  // pause resumes only after every ready coroutine ran — what delay(d) does
  // on the DES — however slowly the wall clock is read.
  struct Pause {
    EpollExecutor::SleepAwaiter timer;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { timer.await_suspend(h); }
    void await_resume() const noexcept {}
  };
  static Pause pause(EpollExecutor& ex, Time d) {
    return Pause{ex.sleep_until(ex.now() + d)};
  }
  static void expect_elapsed(Time dt, Time want) { EXPECT_GE(dt, want); }
  static std::size_t roots(const EpollExecutor& ex) { return ex.roots_alive(); }
};

template <typename S>
auto pause(S& s, Time d) {
  return Loop<S>::pause(s, d);
}

template <typename S>
using Chan = Channel<int, S>;

template <typename S>
class Primitives : public ::testing::Test {
 protected:
  // Runs to completion. The epoll loop throws if a coroutine is left parked
  // with nothing to wake it; the DES reports it as an unfinished process.
  void run() {
    s.run();
    if constexpr (std::is_same_v<S, Simulation>) {
      EXPECT_EQ(s.unfinished_processes(), 0u);
    }
  }
  void expect_elapsed(Time t, Time want) {
    Loop<S>::expect_elapsed(t - t0, want);
  }

  S s;
  const Time t0 = s.now();
};

struct SchedulerNames {
  template <typename S>
  static std::string GetName(int) {
    return std::is_same_v<S, Simulation> ? "Simulation" : "EpollExecutor";
  }
};
using Schedulers = ::testing::Types<Simulation, EpollExecutor>;

template <typename S>
class ChannelTest : public Primitives<S> {};
template <typename S>
class MutexTest : public Primitives<S> {};
template <typename S>
class CondVarTest : public Primitives<S> {};
template <typename S>
class SemaphoreTest : public Primitives<S> {};
template <typename S>
class LatchTest : public Primitives<S> {};
template <typename S>
class RootSetTest : public Primitives<S> {};

/// Passed by value to a coroutine, so it lives in the frame until the frame
/// is destroyed (locals end with the body), and logs that destruction.
struct FrameProbe {
  std::vector<std::string>* log;
  const char* name;
  FrameProbe(std::vector<std::string>& l, const char* n) : log(&l), name(n) {}
  FrameProbe(FrameProbe&& o) noexcept
      : log(std::exchange(o.log, nullptr)), name(o.name) {}
  ~FrameProbe() {
    if (log) log->push_back(std::string(name) + " freed");
  }
};

}  // namespace

TYPED_TEST_SUITE(ChannelTest, Schedulers, SchedulerNames);
TYPED_TEST_SUITE(MutexTest, Schedulers, SchedulerNames);
TYPED_TEST_SUITE(CondVarTest, Schedulers, SchedulerNames);
TYPED_TEST_SUITE(SemaphoreTest, Schedulers, SchedulerNames);
TYPED_TEST_SUITE(LatchTest, Schedulers, SchedulerNames);
TYPED_TEST_SUITE(RootSetTest, Schedulers, SchedulerNames);

// ---------------------------------------------------------------- Channel --

TYPED_TEST(ChannelTest, SendThenRecv) {
  auto& s = this->s;
  Chan<TypeParam> ch(s);
  std::optional<int> got;
  s.spawn([](Chan<TypeParam>& c) -> Task { co_await c.send(42); }(ch));
  s.spawn([](Chan<TypeParam>& c, std::optional<int>& g) -> Task {
    g = co_await c.recv();
  }(ch, got));
  this->run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 42);
}

TYPED_TEST(ChannelTest, RecvBeforeSendParksReceiver) {
  auto& s = this->s;
  Chan<TypeParam> ch(s);
  std::vector<int> got;
  Time got_at = -1;
  s.spawn([](TypeParam& sc, Chan<TypeParam>& c, std::vector<int>& g,
             Time& at) -> Task {
    auto v = co_await c.recv();
    g.push_back(*v);
    at = sc.now();
  }(s, ch, got, got_at));
  s.spawn([](TypeParam& sc, Chan<TypeParam>& c) -> Task {
    co_await pause(sc, 100);
    co_await c.send(7);
  }(s, ch));
  this->run();
  EXPECT_EQ(got, (std::vector<int>{7}));
  this->expect_elapsed(got_at, 100);
}

TYPED_TEST(ChannelTest, FifoAmongValues) {
  auto& s = this->s;
  Chan<TypeParam> ch(s);
  std::vector<int> got;
  s.spawn([](Chan<TypeParam>& c) -> Task {
    for (int i = 0; i < 10; ++i) co_await c.send(i);
  }(ch));
  s.spawn([](Chan<TypeParam>& c, std::vector<int>& g) -> Task {
    for (int i = 0; i < 10; ++i) g.push_back(*co_await c.recv());
  }(ch, got));
  this->run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TYPED_TEST(ChannelTest, BoundedAppliesBackpressure) {
  auto& s = this->s;
  Chan<TypeParam> ch(s, 2);
  Time third_send_done = -1;
  s.spawn([](TypeParam& sc, Chan<TypeParam>& c, Time& t3) -> Task {
    co_await c.send(1);
    co_await c.send(2);
    co_await c.send(3);  // must wait until receiver drains one
    t3 = sc.now();
  }(s, ch, third_send_done));
  s.spawn([](TypeParam& sc, Chan<TypeParam>& c) -> Task {
    co_await pause(sc, 500);
    EXPECT_EQ(c.size(), 2u);
    co_await c.recv();
    co_await c.recv();
    co_await c.recv();
  }(s, ch));
  this->run();
  this->expect_elapsed(third_send_done, 500);
}

TYPED_TEST(ChannelTest, DirectHandoffCannotBeStolen) {
  // A receiver parked first must get the value even if another recv arrives
  // in the same scheduler turn.
  auto& s = this->s;
  Chan<TypeParam> ch(s);
  std::vector<std::pair<int, int>> got;  // (receiver id, value)
  auto rx = [](Chan<TypeParam>& c, std::vector<std::pair<int, int>>& g,
               int id) -> Task {
    auto v = co_await c.recv();
    g.emplace_back(id, *v);
  };
  s.spawn(rx(ch, got, 1));
  s.spawn([](TypeParam& sc, Chan<TypeParam>& c, auto mk,
             std::vector<std::pair<int, int>>& g) -> Task {
    co_await pause(sc, 10);
    co_await c.send(100);
    // spawn a competing receiver at the same instant
    sc.spawn(mk(c, g, 2));
    co_await c.send(200);
  }(s, ch, rx, got));
  this->run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], (std::pair{1, 100}));
  EXPECT_EQ(got[1], (std::pair{2, 200}));
}

TYPED_TEST(ChannelTest, CloseWakesParkedReceiversWithNullopt) {
  auto& s = this->s;
  Chan<TypeParam> ch(s);
  int nullopts = 0;
  for (int i = 0; i < 3; ++i) {
    s.spawn([](Chan<TypeParam>& c, int& n) -> Task {
      auto v = co_await c.recv();
      if (!v) ++n;
    }(ch, nullopts));
  }
  s.spawn([](TypeParam& sc, Chan<TypeParam>& c) -> Task {
    co_await pause(sc, 5);
    c.close();
  }(s, ch));
  this->run();
  EXPECT_EQ(nullopts, 3);
}

TYPED_TEST(ChannelTest, CloseFailsParkedSenders) {
  // A bounded channel closed while full must not strand its producers: the
  // parked send resumes and reports that its value was dropped.
  auto& s = this->s;
  Chan<TypeParam> ch(s, 1);
  std::vector<bool> delivered;
  s.spawn([](Chan<TypeParam>& c, std::vector<bool>& d) -> Task {
    d.push_back(co_await c.send(1));
    d.push_back(co_await c.send(2));  // parks: full, nobody receiving
  }(ch, delivered));
  s.spawn([](TypeParam& sc, Chan<TypeParam>& c) -> Task {
    co_await pause(sc, 5);
    c.close();
  }(s, ch));
  this->run();
  EXPECT_EQ(delivered, (std::vector<bool>{true, false}));
  EXPECT_EQ(ch.try_recv(), std::optional<int>(1));  // buffered value survives
}

TYPED_TEST(ChannelTest, CloseDrainsBufferedValuesFirst) {
  auto& s = this->s;
  Chan<TypeParam> ch(s);
  std::vector<int> got;
  bool saw_close = false;
  s.spawn([](Chan<TypeParam>& c) -> Task {
    co_await c.send(1);
    co_await c.send(2);
    c.close();
  }(ch));
  s.spawn([](Chan<TypeParam>& c, std::vector<int>& g, bool& sc) -> Task {
    while (true) {
      auto v = co_await c.recv();
      if (!v) {
        sc = true;
        break;
      }
      g.push_back(*v);
    }
  }(ch, got, saw_close));
  this->run();
  EXPECT_EQ(got, (std::vector<int>{1, 2}));
  EXPECT_TRUE(saw_close);
}

TYPED_TEST(ChannelTest, TrySendRespectsCapacity) {
  Chan<TypeParam> ch(this->s, 1);
  EXPECT_TRUE(ch.try_send(1));
  EXPECT_FALSE(ch.try_send(2));
  EXPECT_EQ(ch.size(), 1u);
}

// The ring starts empty and doubles as values arrive; the bound, not the
// ring, decides when a sender parks.
TYPED_TEST(ChannelTest, BoundHoldsWhileTheRingGrows) {
  auto& s = this->s;
  Chan<TypeParam> ch(s, 256);
  int sent = 0;
  std::vector<int> got;
  s.spawn([](Chan<TypeParam>& c, int& n) -> Task {
    for (int i = 0; i < 257; ++i) {
      co_await c.send(i);
      ++n;
    }
  }(ch, sent));
  s.spawn([](TypeParam& sc, Chan<TypeParam>& c, int& n,
             std::vector<int>& g) -> Task {
    co_await pause(sc, 100);
    EXPECT_EQ(n, 256);  // 256 buffered; the 257th send is parked
    EXPECT_EQ(c.size(), 256u);
    EXPECT_FALSE(c.try_send(-1));
    // Taking the head frees a slot; the parked value fills it at the ring's
    // wrapped-around end.
    g.push_back(*c.try_recv());
    EXPECT_EQ(c.size(), 256u);
    co_await pause(sc, 100);
    EXPECT_EQ(n, 257);
    while (auto v = c.try_recv()) g.push_back(*v);
  }(s, ch, sent, got));
  this->run();
  ASSERT_EQ(got.size(), 257u);
  for (int i = 0; i < 257; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
}

// ------------------------------------------------------------------ Mutex --

TYPED_TEST(MutexTest, MutualExclusionAndFifo) {
  auto& s = this->s;
  BasicMutex<TypeParam> m(s);
  std::vector<int> order;
  auto worker = [](TypeParam& sc, BasicMutex<TypeParam>& mx,
                   std::vector<int>& ord, int id) -> Task {
    co_await mx.lock();
    ord.push_back(id);
    co_await pause(sc, 10);
    ord.push_back(id);
    mx.unlock();
  };
  for (int i = 0; i < 4; ++i) s.spawn(worker(s, m, order, i));
  this->run();
  // Each worker's two entries must be adjacent (no interleaving) and FIFO.
  EXPECT_EQ(order, (std::vector<int>{0, 0, 1, 1, 2, 2, 3, 3}));
  this->expect_elapsed(s.now(), 40);
}

TYPED_TEST(MutexTest, TryLock) {
  BasicMutex<TypeParam> m(this->s);
  EXPECT_TRUE(m.try_lock());
  EXPECT_FALSE(m.try_lock());
  m.unlock();
  EXPECT_TRUE(m.try_lock());
  m.unlock();
}

// ---------------------------------------------------------------- CondVar --

TYPED_TEST(CondVarTest, PredicateLoopWakesOnNotify) {
  auto& s = this->s;
  BasicCondVar<TypeParam> cv(s);
  bool ready = false;
  Time woke_at = -1;

  s.spawn([](TypeParam& sc, BasicCondVar<TypeParam>& c, bool& r,
             Time& w) -> Task {
    while (!r) co_await c.wait();
    w = sc.now();
  }(s, cv, ready, woke_at));

  s.spawn([](TypeParam& sc, BasicCondVar<TypeParam>& c, bool& r) -> Task {
    co_await pause(sc, 250);
    r = true;
    c.notify_one();
  }(s, cv, ready));

  this->run();
  this->expect_elapsed(woke_at, 250);
}

TYPED_TEST(CondVarTest, NotifyAllWakesEveryone) {
  auto& s = this->s;
  BasicCondVar<TypeParam> cv(s);
  bool go = false;
  std::vector<int> woke;
  for (int i = 0; i < 5; ++i) {
    s.spawn([](BasicCondVar<TypeParam>& c, bool& g, std::vector<int>& w,
               int id) -> Task {
      while (!g) co_await c.wait();
      w.push_back(id);
    }(cv, go, woke, i));
  }
  s.spawn([](TypeParam& sc, BasicCondVar<TypeParam>& c, bool& g) -> Task {
    co_await pause(sc, 10);
    g = true;
    c.notify_all();
  }(s, cv, go));
  this->run();
  // Park order is wake order.
  EXPECT_EQ(woke, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(cv.waiter_count(), 0u);
}

TYPED_TEST(CondVarTest, SpuriousSafeWithPredicate) {
  auto& s = this->s;
  BasicCondVar<TypeParam> cv(s);
  bool ready = false;
  int wakeups = 0;
  s.spawn([](BasicCondVar<TypeParam>& c, bool& r, int& w) -> Task {
    while (!r) {
      co_await c.wait();
      ++w;
    }
  }(cv, ready, wakeups));
  s.spawn([](TypeParam& sc, BasicCondVar<TypeParam>& c, bool& r) -> Task {
    co_await pause(sc, 5);
    c.notify_one();  // spurious: predicate still false
    co_await pause(sc, 5);
    r = true;
    c.notify_one();
  }(s, cv, ready));
  this->run();
  EXPECT_EQ(wakeups, 2);
}

// -------------------------------------------------------------- Semaphore --

TYPED_TEST(SemaphoreTest, LimitsConcurrency) {
  auto& s = this->s;
  BasicSemaphore<TypeParam> sem(s, 2);
  int active = 0, peak = 0;
  std::vector<int> entered;
  for (int i = 0; i < 6; ++i) {
    s.spawn([](TypeParam& sc, BasicSemaphore<TypeParam>& sm, int& a, int& p,
               std::vector<int>& e, int id) -> Task {
      co_await sm.acquire();
      e.push_back(id);
      ++a;
      p = std::max(p, a);
      co_await pause(sc, 100);
      --a;
      sm.release();
    }(s, sem, active, peak, entered, i));
  }
  this->run();
  EXPECT_EQ(peak, 2);
  EXPECT_EQ(entered, (std::vector<int>{0, 1, 2, 3, 4, 5}));  // FIFO permits
  EXPECT_EQ(sem.available(), 2);
  this->expect_elapsed(s.now(), 300);  // 6 jobs, width 2, 100 each
}

// ------------------------------------------------------------------ Latch --

TYPED_TEST(LatchTest, ReleasesAllWaitersOnlyAtZero) {
  auto& s = this->s;
  BasicLatch<TypeParam> latch(s, 2);
  std::vector<int> released;
  for (int i = 0; i < 3; ++i) {
    s.spawn([](BasicLatch<TypeParam>& l, std::vector<int>& r, int id) -> Task {
      co_await l.wait();
      r.push_back(id);
    }(latch, released, i));
  }
  s.spawn([](TypeParam& sc, BasicLatch<TypeParam>& l,
             std::vector<int>& r) -> Task {
    co_await pause(sc, 5);
    l.count_down();
    co_await pause(sc, 5);
    EXPECT_TRUE(r.empty()) << "released before the count reached zero";
    l.count_down();
  }(s, latch, released));
  this->run();
  EXPECT_EQ(released, (std::vector<int>{0, 1, 2}));  // park order
  EXPECT_EQ(latch.pending(), 0);
}

TYPED_TEST(LatchTest, WaitAtZeroDoesNotPark) {
  auto& s = this->s;
  BasicLatch<TypeParam> latch(s, 1);
  latch.count_down();
  bool passed = false;
  s.spawn([](BasicLatch<TypeParam>& l, bool& p) -> Task {
    co_await l.wait();
    p = true;
  }(latch, passed));
  this->run();
  EXPECT_TRUE(passed);
}

// ---------------------------------------------------------------- RootSet --

TYPED_TEST(RootSetTest, FinishedRootIsFreedAtItsOwnEvent) {
  auto& s = this->s;
  std::vector<std::string> log;
  s.spawn([](TypeParam& sc, FrameProbe probe) -> Task {
    co_await pause(sc, 100);
    probe.log->push_back("early ends");
  }(s, FrameProbe(log, "early")));
  s.spawn([](TypeParam& sc, FrameProbe probe) -> Task {
    EXPECT_EQ(Loop<TypeParam>::roots(sc), 2u);
    co_await pause(sc, 1000);
    // The early root's frame went with its last event, before this one.
    EXPECT_EQ(Loop<TypeParam>::roots(sc), 1u);
    probe.log->push_back("late wakes");
  }(s, FrameProbe(log, "late")));
  this->run();
  EXPECT_EQ(log, (std::vector<std::string>{"early ends", "early freed",
                                           "late wakes", "late freed"}));
  EXPECT_EQ(Loop<TypeParam>::roots(s), 0u);
}

TYPED_TEST(RootSetTest, ThrowingRootStopsTheRunAtItsEvent) {
  std::vector<std::string> log;
  TypeParam s;  // destroyed first: it frees the bystander into `log`
  s.spawn([](TypeParam& sc, FrameProbe) -> Task {
    co_await pause(sc, 100);
    throw std::logic_error("root failure");
  }(s, FrameProbe(log, "thrower")));
  // Due after the thrower: on the DES at a later time, on the epoll loop
  // possibly in the same ready batch. Either way it must not run.
  s.spawn([](TypeParam& sc, FrameProbe probe) -> Task {
    co_await pause(sc, 200);
    probe.log->push_back("bystander wakes");
  }(s, FrameProbe(log, "bystander")));
  EXPECT_THROW(s.run(), std::logic_error);
  EXPECT_EQ(log, (std::vector<std::string>{"thrower freed"}));
  EXPECT_EQ(Loop<TypeParam>::roots(s), 1u);
}

TYPED_TEST(RootSetTest, ParkedRootsAreFreedByTheDestructor) {
  std::vector<std::string> log;
  {
    TypeParam s;
    Chan<TypeParam> never(s);
    for (const char* name : {"first", "second"}) {
      s.spawn([](Chan<TypeParam>& ch, FrameProbe probe) -> Task {
        // A parked child frame goes with its parent's.
        co_await [](Chan<TypeParam>& c, FrameProbe) -> Task {
          co_await c.recv();
        }(ch, FrameProbe(*probe.log, "child"));
      }(never, FrameProbe(log, name)));
    }
    if constexpr (std::is_same_v<TypeParam, Simulation>) {
      s.run();
    } else {
      EXPECT_THROW(s.run(), std::runtime_error);  // parked, nothing to wake
    }
    EXPECT_EQ(Loop<TypeParam>::roots(s), 2u);
    EXPECT_TRUE(log.empty());
  }
  // Spawn order, each root after the child it awaits.
  EXPECT_EQ(log, (std::vector<std::string>{"child freed", "first freed",
                                           "child freed", "second freed"}));
}

// ---------------------------------------------------------------- Resource --

TEST(Resource, ServiceTimeMatchesRate) {
  Simulation sim;
  Resource res(sim, 1e9);  // 1 GB/s == 1 byte/ns
  Time done = -1;
  sim.spawn([](Simulation& s, Resource& r, Time& d) -> Task {
    co_await r.transfer(1000);
    d = s.now();
  }(sim, res, done));
  sim.run();
  EXPECT_EQ(done, 1000);
}

TEST(Resource, PerOpOverheadAdds) {
  Simulation sim;
  Resource res(sim, 1e9, 50);
  Time done = -1;
  sim.spawn([](Simulation& s, Resource& r, Time& d) -> Task {
    co_await r.transfer(1000);
    d = s.now();
  }(sim, res, done));
  sim.run();
  EXPECT_EQ(done, 1050);
}

TEST(Resource, ZeroRateMeansLatencyOnly) {
  Simulation sim;
  Resource res(sim, 0.0, 77);
  Time done = -1;
  sim.spawn([](Simulation& s, Resource& r, Time& d) -> Task {
    co_await r.op();
    d = s.now();
  }(sim, res, done));
  sim.run();
  EXPECT_EQ(done, 77);
}

TEST(Resource, FifoSerializationAndWaitAccounting) {
  Simulation sim;
  Resource res(sim, 1e9);
  std::vector<std::pair<Time, Time>> results;  // (completion, reported wait)
  for (int i = 0; i < 3; ++i) {
    sim.spawn([](Simulation& s, Resource& r, std::vector<std::pair<Time, Time>>& out)
                  -> Task {
      const Time w = co_await r.transfer(100);
      out.emplace_back(s.now(), w);
    }(sim, res, results));
  }
  sim.run();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0], (std::pair<Time, Time>{100, 0}));
  EXPECT_EQ(results[1], (std::pair<Time, Time>{200, 100}));
  EXPECT_EQ(results[2], (std::pair<Time, Time>{300, 200}));
  EXPECT_EQ(res.stats().ops, 3u);
  EXPECT_EQ(res.stats().bytes, 300u);
  EXPECT_EQ(res.stats().busy, 300);
  EXPECT_EQ(res.stats().queue_wait, 300);
}

TEST(Resource, SharedByTwoFlowsHalvesThroughput) {
  Simulation sim;
  Resource res(sim, 2e9);  // 2 bytes/ns
  Time a_done = 0, b_done = 0;
  sim.spawn([](Simulation& s, Resource& r, Time& d) -> Task {
    for (int i = 0; i < 10; ++i) co_await r.transfer(1000);
    d = s.now();
  }(sim, res, a_done));
  sim.spawn([](Simulation& s, Resource& r, Time& d) -> Task {
    for (int i = 0; i < 10; ++i) co_await r.transfer(1000);
    d = s.now();
  }(sim, res, b_done));
  sim.run();
  // 20 transfers of 500ns each, interleaved FIFO -> both finish ~10000ns.
  EXPECT_EQ(std::max(a_done, b_done), 10000);
}

TEST(Resource, BacklogReflectsQueuedWork) {
  Simulation sim;
  Resource res(sim, 1e9);
  Time backlog_seen = -1;
  sim.spawn([](Simulation& s, Resource& r, Time& b) -> Task {
    // enqueue 3 transfers back-to-back without awaiting (via spawn)
    s.spawn([](Resource& rr) -> Task { co_await rr.transfer(1000); }(r));
    s.spawn([](Resource& rr) -> Task { co_await rr.transfer(1000); }(r));
    co_await s.delay(1);
    b = r.backlog();
  }(sim, res, backlog_seen));
  sim.run();
  EXPECT_EQ(backlog_seen, 1999);  // 2000ns of work, 1ns elapsed
}

TEST(Resource, DeterministicAcrossRuns) {
  auto run_once = []() {
    Simulation sim;
    Resource res(sim, 3.7e9, 13);
    std::vector<Time> done;
    for (int i = 0; i < 50; ++i) {
      sim.spawn([](Simulation& s, Resource& r, std::vector<Time>& d, int sz) -> Task {
        co_await r.transfer(static_cast<std::uint64_t>(sz) * 97 + 5);
        d.push_back(s.now());
      }(sim, res, done, i));
    }
    sim.run();
    return done;
  };
  EXPECT_EQ(run_once(), run_once());
}
