// Tests for the mini-MPI layer: matching, wildcards, sendrecv, isend/waitall
// via Latch, the intrusive parked/unmatched queues (unlink from the middle
// and tail, first-match-in-park-order, selective receive), and the
// collectives (barrier, bcast, reduce, allreduce, gather).
#include <gtest/gtest.h>

#include <any>
#include <numeric>
#include <tuple>
#include <vector>

#include "mpi/mpi.hpp"
#include "net/fabric.hpp"
#include "sim/latch.hpp"
#include "sim/simulation.hpp"

using namespace zipper;
using zipper::sim::Latch;
using zipper::sim::Simulation;
using zipper::sim::Task;
using zipper::sim::Time;

namespace {

net::FabricConfig fabric_cfg(int hosts) {
  net::FabricConfig cfg;
  cfg.num_hosts = hosts;
  cfg.hosts_per_leaf = 4;
  cfg.num_core_switches = 2;
  cfg.nic_bandwidth = 1e9;
  cfg.port_bandwidth = 1e9;
  cfg.shm_bandwidth = 4e9;
  cfg.hop_latency = 50;
  cfg.software_overhead = 0;
  return cfg;
}

struct Rig {
  Simulation sim;
  net::Fabric fabric;
  mpi::World world;

  // `ranks_per_host` ranks packed per host.
  Rig(int nranks, int nhosts, int ranks_per_host = 1)
      : fabric(sim, fabric_cfg(nhosts)),
        world(sim, fabric, make_map(nranks, ranks_per_host)) {}

  static std::vector<int> make_map(int nranks, int per_host) {
    std::vector<int> m(static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r) m[static_cast<std::size_t>(r)] = r / per_host;
    return m;
  }
};

}  // namespace

TEST(MiniMpi, SendRecvDeliversPayload) {
  Rig rig(2, 2);
  double got = 0;
  rig.sim.spawn([](Rig& r) -> Task {
    co_await r.world.send(0, 1, /*tag=*/7, 1024, std::any{3.25});
  }(rig));
  rig.sim.spawn([](Rig& r, double& g) -> Task {
    mpi::Envelope e;
    co_await r.world.recv(1, 0, 7, e);
    g = std::any_cast<double>(e.payload);
    EXPECT_EQ(e.src, 0);
    EXPECT_EQ(e.tag, 7);
    EXPECT_EQ(e.bytes, 1024u);
  }(rig, got));
  rig.sim.run();
  EXPECT_DOUBLE_EQ(got, 3.25);
  EXPECT_EQ(rig.sim.unfinished_processes(), 0u);
}

TEST(MiniMpi, BufferedSendDoesNotNeedPostedRecv) {
  Rig rig(2, 2);
  Time send_done = -1, recv_done = -1;
  rig.sim.spawn([](Rig& r, Time& sd) -> Task {
    co_await r.world.send(0, 1, 1, 1000);
    sd = r.sim.now();
  }(rig, send_done));
  rig.sim.spawn([](Rig& r, Time& rd) -> Task {
    co_await r.sim.delay(1'000'000);  // receiver arrives late
    mpi::Envelope e;
    co_await r.world.recv(1, 0, 1, e);
    rd = r.sim.now();
  }(rig, recv_done));
  rig.sim.run();
  EXPECT_LT(send_done, 10'000);       // sender was not blocked on the recv
  EXPECT_EQ(recv_done, 1'000'000);    // message was already waiting
}

TEST(MiniMpi, TagMatchingIsSelective) {
  Rig rig(2, 2);
  std::vector<int> order;
  rig.sim.spawn([](Rig& r) -> Task {
    co_await r.world.send(0, 1, /*tag=*/5, 100, std::any{5.0});
    co_await r.world.send(0, 1, /*tag=*/6, 100, std::any{6.0});
  }(rig));
  rig.sim.spawn([](Rig& r, std::vector<int>& ord) -> Task {
    mpi::Envelope e;
    co_await r.world.recv(1, 0, 6, e);  // receive tag 6 first
    ord.push_back(static_cast<int>(std::any_cast<double>(e.payload)));
    co_await r.world.recv(1, 0, 5, e);
    ord.push_back(static_cast<int>(std::any_cast<double>(e.payload)));
  }(rig, order));
  rig.sim.run();
  EXPECT_EQ(order, (std::vector<int>{6, 5}));
}

TEST(MiniMpi, WildcardsMatchAnything) {
  Rig rig(3, 3);
  int received = 0;
  rig.sim.spawn([](Rig& r) -> Task { co_await r.world.send(0, 2, 11, 64); }(rig));
  rig.sim.spawn([](Rig& r) -> Task { co_await r.world.send(1, 2, 12, 64); }(rig));
  rig.sim.spawn([](Rig& r, int& n) -> Task {
    mpi::Envelope e;
    co_await r.world.recv(2, mpi::kAnySource, mpi::kAnyTag, e);
    ++n;
    co_await r.world.recv(2, mpi::kAnySource, mpi::kAnyTag, e);
    ++n;
  }(rig, received));
  rig.sim.run();
  EXPECT_EQ(received, 2);
}

TEST(MiniMpi, IsendWithLatchWaitall) {
  Rig rig(4, 4);
  Time all_done = -1;
  rig.sim.spawn([](Rig& r, Time& d) -> Task {
    Latch latch(r.sim, 3);
    for (int dst = 1; dst < 4; ++dst) {
      r.world.isend(0, dst, 9, 5000, {}, &latch);
    }
    co_await latch.wait();  // MPI_Waitall
    d = r.sim.now();
  }(rig, all_done));
  for (int dst = 1; dst < 4; ++dst) {
    rig.sim.spawn([](Rig& r, int me) -> Task {
      mpi::Envelope e;
      co_await r.world.recv(me, 0, 9, e);
    }(rig, dst));
  }
  rig.sim.run();
  // Three 5064-byte sends serialize at host 0's TX: >= 3 * 5064 ns.
  EXPECT_GE(all_done, 3 * 5064);
  EXPECT_EQ(rig.sim.unfinished_processes(), 0u);
}

TEST(MiniMpi, SendrecvCompletesBothSides) {
  // Classic halo exchange ring with 4 ranks; everyone sendrecvs to the right.
  Rig rig(4, 4);
  int completed = 0;
  for (int r = 0; r < 4; ++r) {
    rig.sim.spawn([](Rig& rg, int me, int& done) -> Task {
      const int right = (me + 1) % 4;
      const int left = (me + 3) % 4;
      mpi::Envelope e;
      co_await rg.world.sendrecv(me, right, 3, 2048, left, 3, e);
      EXPECT_EQ(e.src, left);
      ++done;
    }(rig, r, completed));
  }
  rig.sim.run();
  EXPECT_EQ(completed, 4);
  EXPECT_EQ(rig.sim.unfinished_processes(), 0u);
}

TEST(MiniMpi, SameHostRanksUseShm) {
  Rig rig(2, 1, /*ranks_per_host=*/2);
  rig.sim.spawn([](Rig& r) -> Task { co_await r.world.send(0, 1, 1, 4096); }(rig));
  rig.sim.spawn([](Rig& r) -> Task {
    mpi::Envelope e;
    co_await r.world.recv(1, 0, 1, e);
  }(rig));
  rig.sim.run();
  EXPECT_EQ(rig.fabric.counters(0).xmit_data, 0u);  // never hit the NIC
}

// ------------------------------------------------ intrusive matching queues --

namespace {

// Parks one receive on `dst` and logs (id, tag, src) when it completes.
Task logged_recv(Rig& r, int dst, int src, int tag, int id,
                 std::vector<std::tuple<int, int, int>>& log) {
  mpi::Envelope e;
  co_await r.world.recv(dst, src, tag, e);
  log.emplace_back(id, e.tag, e.src);
}

}  // namespace

// Deliveries unlink the matching receiver from the middle, then the tail,
// then the head of the parked list; a receive parked after the tail was
// unlinked must still be reachable (the tail pointer moved back).
TEST(MiniMpi, DeliveryUnlinksParkedReceiverFromMiddleAndTail) {
  Rig rig(2, 2);
  std::vector<std::tuple<int, int, int>> log;
  std::vector<std::size_t> pending;
  for (int id = 0; id < 3; ++id) {
    rig.sim.spawn(logged_recv(rig, 1, 0, /*tag=*/id + 1, id, log));  // tags 1..3
  }
  rig.sim.spawn([](Rig& r, std::vector<std::tuple<int, int, int>>& lg,
                   std::vector<std::size_t>& pend) -> Task {
    co_await r.world.send(0, 1, 2, 64);  // middle
    pend.push_back(r.world.pending_at(1));
    co_await r.world.send(0, 1, 3, 64);  // tail
    pend.push_back(r.world.pending_at(1));
    r.sim.spawn(logged_recv(r, 1, 0, 4, 3, lg));  // parks behind id 0
    co_await r.sim.delay(1);
    co_await r.world.send(0, 1, 4, 64);  // the new tail
    pend.push_back(r.world.pending_at(1));
    co_await r.world.send(0, 1, 1, 64);  // head, now the only one left
    pend.push_back(r.world.pending_at(1));
  }(rig, log, pending));
  rig.sim.run();
  EXPECT_EQ(log, (std::vector<std::tuple<int, int, int>>{
                     {1, 2, 0}, {2, 3, 0}, {3, 4, 0}, {0, 1, 0}}));
  EXPECT_EQ(pending, (std::vector<std::size_t>{0, 0, 0, 0}));
  EXPECT_EQ(rig.sim.unfinished_processes(), 0u);
}

// Receivers whose (source, tag) filters overlap: each delivery goes to the
// first parked receiver that matches, in park order.
TEST(MiniMpi, OverlappingWildcardsMatchFirstParkedReceiver) {
  Rig rig(3, 3);
  std::vector<std::tuple<int, int, int>> log;
  std::vector<std::size_t> pending;
  rig.sim.spawn(logged_recv(rig, 2, mpi::kAnySource, 5, /*id=*/0, log));
  rig.sim.spawn(logged_recv(rig, 2, 1, mpi::kAnyTag, /*id=*/1, log));
  rig.sim.spawn(logged_recv(rig, 2, mpi::kAnySource, mpi::kAnyTag, /*id=*/2, log));
  rig.sim.spawn(logged_recv(rig, 2, 1, 5, /*id=*/3, log));
  rig.sim.spawn([](Rig& r, std::vector<std::size_t>& pend) -> Task {
    co_await r.world.send(1, 2, 5, 64);  // all four match: id 0 wins
    pend.push_back(r.world.pending_at(2));
    co_await r.world.send(1, 2, 5, 64);  // ids 1, 2, 3 match: id 1 wins
    pend.push_back(r.world.pending_at(2));
    co_await r.world.send(0, 2, 5, 64);  // only id 2 (id 3 wants source 1)
    pend.push_back(r.world.pending_at(2));
    co_await r.world.send(0, 2, 5, 64);  // nobody matches: buffered
    pend.push_back(r.world.pending_at(2));
    co_await r.world.send(1, 2, 5, 64);  // id 3, the last parked receiver
    pend.push_back(r.world.pending_at(2));
  }(rig, pending));
  rig.sim.run();
  EXPECT_EQ(log, (std::vector<std::tuple<int, int, int>>{
                     {0, 5, 1}, {1, 5, 1}, {2, 5, 0}, {3, 5, 1}}));
  EXPECT_EQ(pending, (std::vector<std::size_t>{0, 0, 0, 1, 1}));
  EXPECT_EQ(rig.sim.unfinished_processes(), 0u);
}

// A selective receive takes its message from the middle of the unmatched
// queue; wildcard receives then drain the rest in arrival order. 200
// messages also exercise reclaiming the consumed prefix.
TEST(MiniMpi, SelectiveRecvPullsFromMiddleOfUnmatchedQueue) {
  Rig rig(2, 2);
  constexpr int kMsgs = 200;
  std::vector<int> tags;
  std::vector<std::size_t> pending;
  rig.sim.spawn([](Rig& r) -> Task {
    for (int t = 0; t < kMsgs; ++t) co_await r.world.send(0, 1, t, 8);
  }(rig));
  rig.sim.spawn([](Rig& r, std::vector<int>& tg, std::vector<std::size_t>& pend)
                    -> Task {
    co_await r.sim.delay(1'000'000);  // every message is buffered by now
    pend.push_back(r.world.pending_at(1));
    mpi::Envelope e;
    co_await r.world.recv(1, 0, 100, e);  // middle
    tg.push_back(e.tag);
    pend.push_back(r.world.pending_at(1));
    co_await r.world.recv(1, 0, kMsgs - 1, e);  // tail
    tg.push_back(e.tag);
    pend.push_back(r.world.pending_at(1));
    for (int i = 0; i < kMsgs - 2; ++i) {
      co_await r.world.recv(1, mpi::kAnySource, mpi::kAnyTag, e);
      tg.push_back(e.tag);
    }
    pend.push_back(r.world.pending_at(1));
  }(rig, tags, pending));
  rig.sim.run();
  std::vector<int> want{100, kMsgs - 1};
  for (int t = 0; t < kMsgs - 1; ++t) {
    if (t != 100) want.push_back(t);
  }
  EXPECT_EQ(tags, want);
  EXPECT_EQ(pending, (std::vector<std::size_t>{kMsgs, kMsgs - 1, kMsgs - 2, 0}));
  EXPECT_EQ(rig.sim.unfinished_processes(), 0u);
}

// ------------------------------------------------------------- collectives --

namespace {

void run_collective_test(int n, int per_host,
                         const std::function<Task(Rig&, mpi::Communicator&, int)>& body) {
  Rig rig(n, (n + per_host - 1) / per_host, per_host);
  std::vector<int> members(static_cast<std::size_t>(n));
  std::iota(members.begin(), members.end(), 0);
  mpi::Communicator comm(rig.world, members, /*tag_space=*/1 << 20);
  for (int r = 0; r < n; ++r) rig.sim.spawn(body(rig, comm, r));
  rig.sim.run();
  EXPECT_EQ(rig.sim.unfinished_processes(), 0u) << "collective deadlocked, n=" << n;
}

}  // namespace

class CollectiveSizes : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Sizes, CollectiveSizes,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 13, 16, 31, 64));

TEST_P(CollectiveSizes, BarrierNobodyEscapesEarly) {
  const int n = GetParam();
  // Rank 0 enters the barrier late; nobody may leave before it enters.
  struct Shared {
    Time rank0_entered = -1;
    std::vector<Time> left;
    explicit Shared(int k) : left(static_cast<std::size_t>(k), -1) {}
  };
  auto shared = std::make_shared<Shared>(n);
  run_collective_test(n, 2, [shared](Rig& rg, mpi::Communicator& comm, int r) -> Task {
    if (r == 0) {
      co_await rg.sim.delay(500'000);
      shared->rank0_entered = rg.sim.now();
    }
    co_await comm.barrier(r);
    shared->left[static_cast<std::size_t>(r)] = rg.sim.now();
  });
  for (int r = 0; r < n; ++r) {
    EXPECT_GE(shared->left[static_cast<std::size_t>(r)],
              shared->rank0_entered)
        << "rank " << r << " escaped the barrier early (n=" << n << ")";
  }
}

TEST_P(CollectiveSizes, ReduceSumsToRoot) {
  const int n = GetParam();
  auto values = std::make_shared<std::vector<double>>(static_cast<std::size_t>(n), 0.0);
  run_collective_test(n, 2, [values, n](Rig& rg, mpi::Communicator& comm, int r) -> Task {
    double v = static_cast<double>(r + 1);
    co_await comm.reduce(r, /*root=*/0, v);
    (*values)[static_cast<std::size_t>(r)] = v;
    (void)rg;
    (void)n;
  });
  EXPECT_DOUBLE_EQ((*values)[0], n * (n + 1) / 2.0);
}

TEST_P(CollectiveSizes, ReduceToNonzeroRoot) {
  const int n = GetParam();
  const int root = (n - 1) / 2;
  auto values = std::make_shared<std::vector<double>>(static_cast<std::size_t>(n), 0.0);
  run_collective_test(n, 2, [values, root](Rig& rg, mpi::Communicator& comm, int r) -> Task {
    double v = 2.0;
    co_await comm.reduce(r, root, v);
    (*values)[static_cast<std::size_t>(r)] = v;
    (void)rg;
  });
  EXPECT_DOUBLE_EQ((*values)[static_cast<std::size_t>(root)], 2.0 * n);
}

TEST_P(CollectiveSizes, AllreduceEveryRankHasSum) {
  const int n = GetParam();
  auto values = std::make_shared<std::vector<double>>(static_cast<std::size_t>(n), 0.0);
  run_collective_test(n, 2, [values](Rig& rg, mpi::Communicator& comm, int r) -> Task {
    double v = static_cast<double>(r + 1);
    co_await comm.allreduce(r, v);
    (*values)[static_cast<std::size_t>(r)] = v;
    (void)rg;
  });
  for (int r = 0; r < n; ++r) {
    EXPECT_DOUBLE_EQ((*values)[static_cast<std::size_t>(r)], n * (n + 1) / 2.0)
        << "rank " << r;
  }
}

TEST_P(CollectiveSizes, BcastReachesEveryRank) {
  const int n = GetParam();
  auto done = std::make_shared<std::vector<int>>(static_cast<std::size_t>(n), 0);
  run_collective_test(n, 2, [done, n](Rig& rg, mpi::Communicator& comm, int r) -> Task {
    co_await comm.bcast(r, /*root=*/n > 2 ? 2 : 0, 4096);
    (*done)[static_cast<std::size_t>(r)] = 1;
    (void)rg;
  });
  for (int r = 0; r < n; ++r) EXPECT_EQ((*done)[static_cast<std::size_t>(r)], 1);
}

TEST_P(CollectiveSizes, GatherCompletes) {
  const int n = GetParam();
  auto done = std::make_shared<int>(0);
  run_collective_test(n, 2, [done](Rig& rg, mpi::Communicator& comm, int r) -> Task {
    co_await comm.gather(r, 0, 1024);
    ++*done;
    (void)rg;
  });
  EXPECT_EQ(*done, n);
}

TEST(MiniMpi, BackToBackCollectivesDoNotCrossTalk) {
  const int n = 8;
  Rig rig(n, 4, 2);
  std::vector<int> members(n);
  std::iota(members.begin(), members.end(), 0);
  mpi::Communicator comm(rig.world, members, 1 << 20);
  auto sums = std::make_shared<std::vector<double>>(n, 0.0);
  for (int r = 0; r < n; ++r) {
    rig.sim.spawn([](Rig& rg, mpi::Communicator& c, int me,
                     std::shared_ptr<std::vector<double>> out) -> Task {
      for (int iter = 0; iter < 10; ++iter) {
        co_await c.barrier(me);
        double v = 1.0;
        co_await c.allreduce(me, v);
        (*out)[static_cast<std::size_t>(me)] += v;
      }
      (void)rg;
    }(rig, comm, r, sums));
  }
  rig.sim.run();
  EXPECT_EQ(rig.sim.unfinished_processes(), 0u);
  for (int r = 0; r < n; ++r) {
    EXPECT_DOUBLE_EQ((*sums)[static_cast<std::size_t>(r)], 10.0 * n);
  }
}
