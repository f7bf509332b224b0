// Determinism edge cases of the three-tier bucketed event queue:
// same-timestamp FIFO ordering across bucket boundaries and across the
// ring/wheel/heap split, run_until() leaving post-deadline events queued in
// every tier, a randomized differential test against a reference (time, seq)
// priority queue, and the Channel close() contract for parked senders
// (deadlock regression).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <random>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/channel.hpp"
#include "sim/event_queue.hpp"
#include "sim/latch.hpp"
#include "sim/simulation.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

using namespace zipper::sim;

namespace {

constexpr Time kRing = static_cast<Time>(BucketQueue::kRingSize);
constexpr Time kWheelSpan = kRing * static_cast<Time>(BucketQueue::kWheelSize);

Task record_at(Simulation& sim, Time t, std::vector<std::pair<Time, int>>& log,
               int id) {
  co_await sim.delay(t);
  log.emplace_back(sim.now(), id);
}

}  // namespace

// Events scheduled for the same timestamp from two tiers must fire in
// scheduling order: the far-horizon (wheel) batch was scheduled first and
// must precede the near-horizon (ring) batch scheduled later for the same
// time.
TEST(BucketQueue, SameTimestampFifoAcrossTiers) {
  Simulation sim;
  std::vector<std::pair<Time, int>> log;
  const Time target = 2 * kRing + 100;
  // Scheduled at time 0 for `target`: beyond the ring window -> wheel.
  for (int i = 0; i < 4; ++i) sim.spawn(record_at(sim, target, log, i));
  // Wake shortly before `target` and schedule more events for the *same*
  // timestamp: now within the horizon -> ring buckets.
  sim.spawn([](Simulation& s, std::vector<std::pair<Time, int>>& l,
               Time tgt) -> Task {
    co_await s.delay(tgt - 50);
    for (int i = 4; i < 8; ++i) s.spawn(record_at(s, 50, l, i));
  }(sim, log, target));
  sim.run();
  ASSERT_EQ(log.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(log[static_cast<std::size_t>(i)], (std::pair{target, i}));
  }
}

// Timestamps straddling ring-wrap boundaries (multiples of kRingSize) must
// still fire in global (time, schedule-order) order even when spawned
// scrambled.
TEST(BucketQueue, TimeOrderAcrossBucketBoundaries) {
  Simulation sim;
  std::vector<std::pair<Time, int>> log;
  std::vector<std::pair<Time, int>> expected;
  const Time times[] = {kRing - 2, kRing - 1, kRing,     kRing + 1,
                        kRing / 2, 1,         kRing - 2, kRing + 1,
                        3 * kRing, 2 * kRing, kRing - 1, 0};
  int id = 0;
  for (Time t : times) {
    sim.spawn(record_at(sim, t, log, id));
    expected.emplace_back(t, id);
    ++id;
  }
  // Ties break in schedule order => stable sort by time gives the contract.
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  sim.run();
  EXPECT_EQ(log, expected);
}

// run_until() must leave post-deadline events queued — in whichever tier they
// live — and a later run() must dispatch them with unchanged order and an
// exact events_dispatched count.
TEST(BucketQueue, RunUntilParksBothTiersAndResumes) {
  Simulation sim;
  std::vector<std::pair<Time, int>> log;
  sim.spawn(record_at(sim, 100, log, 0));              // ring
  sim.spawn(record_at(sim, kRing + 500, log, 1));      // wheel at schedule time
  sim.spawn(record_at(sim, 4 * kRing, log, 2));        // later window
  sim.spawn(record_at(sim, 4 * kRing, log, 3));        // same-t window FIFO
  const Time deadline = kRing + 500;
  EXPECT_EQ(sim.run_until(deadline), deadline);
  EXPECT_EQ(log, (std::vector<std::pair<Time, int>>{{100, 0}, {kRing + 500, 1}}));
  EXPECT_EQ(sim.events_dispatched(), 6u);  // 4 spawns + 2 fired delays
  EXPECT_EQ(sim.events_queued(), 2u);
  EXPECT_EQ(sim.unfinished_processes(), 2u);

  EXPECT_EQ(sim.run(), 4 * kRing);
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[2], (std::pair{4 * kRing, 2}));
  EXPECT_EQ(log[3], (std::pair{4 * kRing, 3}));
  EXPECT_EQ(sim.events_dispatched(), 8u);
  EXPECT_EQ(sim.unfinished_processes(), 0u);
}

// A deadline landing between queued events must not dispatch anything and
// must advance the clock only on drain (mirrors the documented contract).
TEST(BucketQueue, RunUntilBetweenEventsDispatchesNothing) {
  Simulation sim;
  std::vector<std::pair<Time, int>> log;
  sim.spawn(record_at(sim, 3 * kRing, log, 0));
  sim.run_until(0);  // dispatches only the spawn event at t=0
  EXPECT_TRUE(log.empty());
  sim.run_until(kRing);  // between spawn and the delayed event: no dispatch
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(sim.events_queued(), 1u);
  sim.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], (std::pair{3 * kRing, 0}));
}

// Dense equal-timestamp runs deep in the far horizon must drain in exact
// schedule order even when near-horizon events are interleaved at the same
// timestamps after their window reached the ring (older tiers precede newer
// ones at equal t). Half the runs start beyond the wheel span, so they pass
// through all three tiers.
TEST(BucketQueue, WindowFlushKeepsFifoUnderLoad) {
  Simulation sim;
  std::vector<std::pair<Time, int>> log;
  std::vector<std::pair<Time, int>> expected;
  int id = 0;
  // 40 far-horizon timestamps x 8 same-t events each: they land in the heap
  // or the wheel, then reach the ring window by window as time advances.
  for (int k = 0; k < 40; ++k) {
    const Time t = (k % 2 ? kWheelSpan : 0) + 2 * kRing + 64 * k;
    for (int j = 0; j < 8; ++j) {
      sim.spawn(record_at(sim, t, log, id));
      expected.emplace_back(t, id);
      ++id;
    }
  }
  // Late near-horizon arrivals at a subset of the same timestamps: they were
  // scheduled after the heap batch, so they must fire after it.
  for (int k = 0; k < 40; k += 5) {
    const Time t = (k % 2 ? kWheelSpan : 0) + 2 * kRing + 64 * k;
    sim.spawn([](Simulation& s, std::vector<std::pair<Time, int>>& l, Time tgt,
                 int i) -> Task {
      co_await s.delay(tgt - 10);
      s.spawn(record_at(s, 10, l, i));
    }(sim, log, t, id));
    expected.emplace_back(t, id);
    ++id;
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  sim.run();
  EXPECT_EQ(log, expected);
}

// Two identical mixed-tier universes must dispatch identical event orders.
TEST(BucketQueue, MixedTierDeterminismAcrossRuns) {
  auto run_once = []() {
    Simulation sim;
    std::vector<std::pair<Time, int>> log;
    for (int i = 0; i < 300; ++i) {
      sim.spawn(record_at(sim, (i * 1237) % (5 * kRing) + (i % 3) * kWheelSpan,
                          log, i));
    }
    sim.run();
    return std::pair{sim.events_dispatched(), log};
  };
  auto [c1, l1] = run_once();
  auto [c2, l2] = run_once();
  EXPECT_EQ(c1, c2);
  EXPECT_EQ(l1, l2);
}

// Latch::count_down wakes a large waiter set via one list splice; wake order
// must be FIFO park order.
TEST(BucketQueue, LatchSpliceWakesInParkOrder) {
  Simulation sim;
  Latch latch(sim, 1);
  std::vector<int> order;
  for (int i = 0; i < 64; ++i) {
    sim.spawn([](Latch& l, std::vector<int>& ord, int id) -> Task {
      co_await l.wait();
      ord.push_back(id);
    }(latch, order, i));
  }
  sim.spawn([](Simulation& s, Latch& l) -> Task {
    co_await s.delay(10);
    l.count_down();
  }(sim, latch));
  sim.run();
  ASSERT_EQ(order.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

// Randomized differential test: the three-tier queue against a reference
// (time, seq) priority queue. Pushes mix same-time, ring, window-edge, wheel
// and overflow delays, re-use already queued timestamps so equal times arrive
// from every tier, and splice WaitList batches at the current time. Pops stop
// at deadlines inside and between windows, as run_until() does; the clock
// runs past several wheel wraps. After every step the pop order, the size and
// next_time() (which pop() uses to open the next window) must match.
TEST(BucketQueue, RandomizedDifferentialAgainstReference) {
  using Key = std::tuple<Time, std::uint64_t, std::size_t>;  // (t, seq, node)
  for (std::uint64_t seed : {1u, 7u, 42u}) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng(seed);
    auto below = [&rng](Time n) {
      return static_cast<Time>(rng() % static_cast<std::uint64_t>(n));
    };
    BucketQueue q;
    std::set<Key> ref;
    std::vector<SchedNode> nodes(60000);
    std::size_t used = 0;
    std::uint64_t seq = 0;
    std::vector<Time> queued_times;  // candidates for equal-time pushes
    Time now = 0;

    auto pick_time = [&]() -> Time {
      switch (below(8)) {
        case 0: return now;
        case 1: return now + below(300);                   // ring or next window
        case 2: return (now | (kRing - 1)) + below(3);     // window edge
        case 3: return now + kRing + below(64 * kRing);    // near wheel
        case 4: return now + below(kWheelSpan);            // anywhere in the wheel
        case 5: return now + kWheelSpan - kRing + below(3 * kRing);  // wheel end
        case 6: return now + kWheelSpan + below(kWheelSpan);         // overflow
        default: {
          const Time t = queued_times.empty()
                             ? now
                             : queued_times[rng() % queued_times.size()];
          return t >= now ? t : now;
        }
      }
    };
    auto check = [&] {
      ASSERT_EQ(q.size(), ref.size());
      ASSERT_EQ(q.empty(), ref.empty());
      ASSERT_EQ(q.next_time(now),
                ref.empty() ? BucketQueue::kNoDeadline : std::get<0>(*ref.begin()));
    };

    std::uint64_t popped = 0;
    while (used + 64 < nodes.size()) {
      const Time action = below(10);
      if (action < 5) {
        const Time n = 1 + below(8);
        for (Time i = 0; i < n; ++i) {
          const Time t = pick_time();
          q.push(&nodes[used], t, now);
          ref.emplace(t, seq++, used++);
          queued_times.push_back(t);
        }
      } else if (action == 5) {
        WaitList l;
        const Time n = 1 + below(6);
        for (Time i = 0; i < n; ++i) {
          l.push_back(&nodes[used]);
          ref.emplace(now, seq++, used++);
        }
        q.splice_now(l, now);
        ASSERT_TRUE(l.empty());
      } else {
        Time deadline = BucketQueue::kNoDeadline;
        switch (below(5)) {
          case 0: deadline = now + below(kRing); break;                // inside
          case 1: deadline = (now | (kRing - 1)); break;               // window end
          case 2: deadline = (now | (kRing - 1)) + 1 + below(kRing); break;  // next
          case 3:
            if (!ref.empty()) deadline = std::get<0>(*ref.begin()) - 1;  // between
            break;
          default: break;  // no deadline, bounded pop count
        }
        for (int k = 0; k < 64; ++k) {
          Time t = -1;
          SchedNode* n = q.pop(now, deadline, t);
          if (ref.empty() || std::get<0>(*ref.begin()) > deadline) {
            ASSERT_EQ(n, nullptr);
            // run_until(): an empty queue lets the clock jump to the deadline.
            if (ref.empty() && deadline != BucketQueue::kNoDeadline && now < deadline) {
              now = deadline;
            }
            break;
          }
          const Key want = *ref.begin();
          ref.erase(ref.begin());
          ASSERT_EQ(n, &nodes[std::get<2>(want)]) << "pop " << popped;
          ASSERT_EQ(t, std::get<0>(want)) << "pop " << popped;
          now = t;
          ++popped;
          check();
        }
      }
      check();
      if (queued_times.size() > 4096) queued_times.erase(queued_times.begin(), queued_times.begin() + 2048);
    }
    // Drain what is left.
    Time t = -1;
    while (SchedNode* n = q.pop(now, BucketQueue::kNoDeadline, t)) {
      const Key want = *ref.begin();
      ref.erase(ref.begin());
      ASSERT_EQ(n, &nodes[std::get<2>(want)]);
      ASSERT_EQ(t, std::get<0>(want));
      now = t;
      check();
    }
    EXPECT_TRUE(ref.empty());
    EXPECT_TRUE(q.empty());
    EXPECT_GT(now, 3 * kWheelSpan) << "the clock must pass several wheel wraps";
  }
}

// ---------------------------------------------------- Channel close/senders --

// Regression: close() on a bounded, full channel used to wake only parked
// receivers, leaving parked senders suspended forever. They must now resume
// with their send reporting failure.
TEST(ChannelClose, WakesParkedSendersOnBoundedFullChannel) {
  Simulation sim;
  Channel<int> ch(sim, 1);
  int failed_sends = 0, ok_sends = 0;
  for (int i = 0; i < 3; ++i) {
    sim.spawn([](Channel<int>& c, int& fails, int& oks) -> Task {
      const bool delivered = co_await c.send(7);
      (delivered ? oks : fails) += 1;
    }(ch, failed_sends, ok_sends));
  }
  sim.spawn([](Simulation& s, Channel<int>& c) -> Task {
    co_await s.delay(100);
    c.close();
  }(sim, ch));
  sim.run();
  // First send buffers (capacity 1); the two parked senders fail on close.
  EXPECT_EQ(ok_sends, 1);
  EXPECT_EQ(failed_sends, 2);
  EXPECT_EQ(sim.unfinished_processes(), 0u);  // the deadlock regression check
  // The buffered value stays receivable after close.
  std::optional<int> got;
  sim.spawn([](Channel<int>& c, std::optional<int>& g) -> Task {
    g = co_await c.recv();
  }(ch, got));
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 7);
}

TEST(ChannelClose, DeliveredSendReportsTrue) {
  Simulation sim;
  Channel<int> ch(sim);
  bool delivered = false;
  sim.spawn([](Channel<int>& c, bool& d) -> Task {
    d = co_await c.send(1);
  }(ch, delivered));
  sim.spawn([](Channel<int>& c) -> Task { co_await c.recv(); }(ch));
  sim.run();
  EXPECT_TRUE(delivered);
}

// A sender parked behind backpressure that is *promoted* into a freed buffer
// slot (not closed out) must report success.
TEST(ChannelClose, PromotedSenderReportsTrue) {
  Simulation sim;
  Channel<int> ch(sim, 1);
  std::vector<bool> results;
  sim.spawn([](Channel<int>& c, std::vector<bool>& r) -> Task {
    r.push_back(co_await c.send(1));
    r.push_back(co_await c.send(2));  // parks: buffer full
  }(ch, results));
  sim.spawn([](Simulation& s, Channel<int>& c) -> Task {
    co_await s.delay(50);
    co_await c.recv();  // frees the slot; parked sender promoted
    co_await c.recv();
  }(sim, ch));
  sim.run();
  EXPECT_EQ(results, (std::vector<bool>{true, true}));
  EXPECT_EQ(sim.unfinished_processes(), 0u);
}
