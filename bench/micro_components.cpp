// Google-benchmark micro benches for the building blocks: the DES engine's
// event throughput, the sync primitives on each executor, the fabric
// transfer path, MPI matching at scale, and the real computational kernels
// (LBM step, MD step, moment/MSD analysis).
#include <benchmark/benchmark.h>

#include <coroutine>
#include <cstdint>
#include <memory>
#include <vector>

#include "apps/analysis/moments.hpp"
#include "apps/analysis/msd.hpp"
#include "apps/lbm/lbm_solver.hpp"
#include "apps/md/lj_md.hpp"
#include "apps/synthetic.hpp"
#include "common/rng.hpp"
#include "core/exec/epoll.hpp"
#include "core/exec/threaded.hpp"
#include "core/exec/virtual_time.hpp"
#include "mpi/mpi.hpp"
#include "net/fabric.hpp"
#include "sim/channel.hpp"
#include "sim/latch.hpp"
#include "sim/sharded.hpp"
#include "sim/simulation.hpp"

using namespace zipper;

// ----------------------------------------------------------- DES engine ----

static void BM_SimEventThroughput(benchmark::State& state) {
  const int n_processes = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation s;
    for (int i = 0; i < n_processes; ++i) {
      s.spawn([](sim::Simulation& sim) -> sim::Task {
        for (int k = 0; k < 100; ++k) co_await sim.delay(10);
      }(s));
    }
    s.run();
    benchmark::DoNotOptimize(s.events_dispatched());
  }
  state.SetItemsProcessed(state.iterations() * n_processes * 100);
}
BENCHMARK(BM_SimEventThroughput)->Arg(64)->Arg(1024)->Arg(8192);

// Resumes the caller at the current time, after the events already queued
// there (a same-time wake, as a channel handoff or latch release makes).
struct YieldNow {
  sim::Simulation* sim;
  sim::SchedNode node{};
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    node.h = h;
    sim->schedule_node_now(&node);
  }
  void await_resume() const noexcept {}
};

// Mixed-horizon schedule, exercising every tier of the event queue. Up to
// 1024 processes: half use short (ring) delays, half 100-us (wheel) delays.
// From 65,536 processes: des_weak_xl's delay mix, each process cycling
// through 0 ns (same-time wake), 150 ns (ring), ~84 us (a 1 MiB NIC
// transfer, wheel) and ~8 ms (a sender/receiver/analysis cost, wheel).
static void BM_SimEventThroughputFarHorizon(benchmark::State& state) {
  const int n_processes = static_cast<int>(state.range(0));
  const bool weak_xl_mix = n_processes >= 65536;
  for (auto _ : state) {
    sim::Simulation s;
    for (int i = 0; i < n_processes; ++i) {
      if (weak_xl_mix) {
        s.spawn([](sim::Simulation& sim, int phase) -> sim::Task {
          static constexpr sim::Time kMix[] = {0, 150, 83'950, 8'000'000};
          for (int k = 0; k < 100; ++k) {
            const sim::Time d = kMix[(phase + k) % 4];
            if (d == 0) {
              co_await YieldNow{&sim};
            } else {
              co_await sim.delay(d);
            }
          }
        }(s, i));
      } else {
        s.spawn([](sim::Simulation& sim, sim::Time d) -> sim::Task {
          for (int k = 0; k < 100; ++k) co_await sim.delay(d);
        }(s, i % 2 ? 10 : 100000));
      }
    }
    s.run();
    benchmark::DoNotOptimize(s.events_dispatched());
  }
  state.SetItemsProcessed(state.iterations() * n_processes * 100);
}
BENCHMARK(BM_SimEventThroughputFarHorizon)->Arg(1024)->Arg(65536);

// --------------------------------------------------- sharded DES engine ----

// Four decomposed shards of the BM_SimEventThroughput workload, free-running
// on 1/2/4 worker threads. UseRealTime: worker threads do the dispatching, so
// main-thread CPU time would be meaningless. On a single hardware core the
// >1x scaling comes from the smaller per-shard event queues, not parallelism.
static void BM_ShardedEventThroughput(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  constexpr int kShards = 4, kProcs = 256, kLoops = 100;
  for (auto _ : state) {
    std::vector<std::unique_ptr<sim::Simulation>> shards;
    std::vector<sim::Simulation*> ptrs;
    for (int s = 0; s < kShards; ++s) {
      shards.push_back(std::make_unique<sim::Simulation>());
      auto& sh = *shards.back();
      ptrs.push_back(&sh);
      for (int i = 0; i < kProcs; ++i) {
        sh.spawn([](sim::Simulation& sim) -> sim::Task {
          for (int k = 0; k < kLoops; ++k) co_await sim.delay(10);
        }(sh));
      }
    }
    const auto stats = sim::run_shards(ptrs, threads);
    benchmark::DoNotOptimize(stats.events);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kShards * kProcs * kLoops);
}
BENCHMARK(BM_ShardedEventThroughput)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// Request/reply round trips between a client and a server coroutine over a
// ping and a pong channel. After the first round, every transfer in either
// direction finds its peer parked, so each round is two park/wake handoffs
// through the scheduler — the waiter-list and wakeup cost end to end.
static void BM_ChannelPingPong(benchmark::State& state) {
  const int pairs = static_cast<int>(state.range(0));
  constexpr int kRounds = 100;
  struct Duo {
    sim::Channel<int> ping, pong;
    explicit Duo(sim::Simulation& s) : ping(s), pong(s) {}
  };
  for (auto _ : state) {
    sim::Simulation s;
    std::vector<std::unique_ptr<Duo>> duos;
    for (int i = 0; i < pairs; ++i) duos.push_back(std::make_unique<Duo>(s));
    for (int i = 0; i < pairs; ++i) {
      Duo& d = *duos[static_cast<std::size_t>(i)];
      s.spawn([](Duo& du) -> sim::Task {  // client
        for (int k = 0; k < kRounds; ++k) {
          co_await du.ping.send(k);
          co_await du.pong.recv();
        }
      }(d));
      s.spawn([](Duo& du) -> sim::Task {  // server
        for (int k = 0; k < kRounds; ++k) {
          co_await du.ping.recv();
          co_await du.pong.send(k);
        }
      }(d));
    }
    s.run();
    benchmark::DoNotOptimize(s.events_dispatched());
  }
  state.SetItemsProcessed(state.iterations() * pairs * kRounds);
}
BENCHMARK(BM_ChannelPingPong)->Arg(64)->Arg(1024);

// The same request/reply shape through the unified execution layer
// (core/exec), one bench per executor. The virtual variant must match the
// raw-kernel ping-pong above — the VirtualTimeExecutor veneer is required to
// be zero-cost, so any gap here is a regression in the unified channel path
// feeding the DES kernel. The threaded variant prices the real park/wake
// handoff (mutex + condvar) the RunInCoro awaitables pay per transfer.
static void BM_ExecChannelPingPongVirtual(benchmark::State& state) {
  constexpr int kPairs = 64;
  constexpr int kRounds = 100;
  struct Duo {
    sim::Channel<int> ping, pong;
    explicit Duo(sim::Simulation& s) : ping(s), pong(s) {}
  };
  for (auto _ : state) {
    sim::Simulation s;
    core::exec::VirtualTimeExecutor ex(s);
    std::vector<std::unique_ptr<Duo>> duos;
    for (int i = 0; i < kPairs; ++i) duos.push_back(std::make_unique<Duo>(ex));
    for (int i = 0; i < kPairs; ++i) {
      Duo& d = *duos[static_cast<std::size_t>(i)];
      ex.spawn([](Duo& du) -> sim::Task {  // client
        for (int k = 0; k < kRounds; ++k) {
          co_await du.ping.send(k);
          co_await du.pong.recv();
        }
      }(d));
      ex.spawn([](Duo& du) -> sim::Task {  // server
        for (int k = 0; k < kRounds; ++k) {
          co_await du.ping.recv();
          co_await du.pong.send(k);
        }
      }(d));
    }
    s.run();
    benchmark::DoNotOptimize(s.events_dispatched());
  }
  state.SetItemsProcessed(state.iterations() * kPairs * kRounds);
}
BENCHMARK(BM_ExecChannelPingPongVirtual)->Name("BM_ExecChannelPingPong/virtual");

static void BM_ExecChannelPingPongThreaded(benchmark::State& state) {
  constexpr int kPairs = 2;  // each coroutine occupies one worker thread
  constexpr int kRounds = 512;
  using core::exec::ThreadPoolExecutor;
  using core::exec::TpChannel;
  struct Duo {
    TpChannel<int> ping, pong;
    explicit Duo(ThreadPoolExecutor& e) : ping(e, 1), pong(e, 1) {}
  };
  for (auto _ : state) {
    ThreadPoolExecutor ex;
    std::vector<std::unique_ptr<Duo>> duos;
    for (int i = 0; i < kPairs; ++i) duos.push_back(std::make_unique<Duo>(ex));
    for (int i = 0; i < kPairs; ++i) {
      Duo& d = *duos[static_cast<std::size_t>(i)];
      ex.spawn([](Duo& du) -> sim::Task {  // client
        for (int k = 0; k < kRounds; ++k) {
          co_await du.ping.send(k);
          co_await du.pong.recv();
        }
      }(d));
      ex.spawn([](Duo& du) -> sim::Task {  // server
        for (int k = 0; k < kRounds; ++k) {
          co_await du.ping.recv();
          co_await du.pong.send(k);
        }
      }(d));
    }
    ex.shutdown();  // workers drain the queue and finish every round trip
  }
  state.SetItemsProcessed(state.iterations() * kPairs * kRounds);
}
// UseRealTime: the round trips happen on pool workers, not the bench thread.
BENCHMARK(BM_ExecChannelPingPongThreaded)
    ->Name("BM_ExecChannelPingPong/threaded")
    ->UseRealTime();

// The same shape once more on the EpollExecutor (core/exec/epoll), the
// real-I/O loop behind zipperd. The channel is sim::Channel itself on the
// loop's wake hooks, and transfers are pure scheduler handoffs -- no fd is
// touched -- so this prices the epoll loop's ready queue per park/wake
// against the DES kernel's event queue for the same channel code, which is
// the per-block overhead every daemon session pays between the socket and
// the consumer coroutine. Guarded by tools/check_bench_regression.py via
// its BENCH_sim.json entry.
static void BM_EpollChannelPingPong(benchmark::State& state) {
  constexpr int kPairs = 64;
  constexpr int kRounds = 100;
  using core::exec::EpollExecutor;
  struct Duo {
    sim::Channel<int, EpollExecutor> ping, pong;
    explicit Duo(EpollExecutor& e) : ping(e), pong(e) {}
  };
  for (auto _ : state) {
    EpollExecutor ex;
    std::vector<std::unique_ptr<Duo>> duos;
    for (int i = 0; i < kPairs; ++i) duos.push_back(std::make_unique<Duo>(ex));
    for (int i = 0; i < kPairs; ++i) {
      Duo& d = *duos[static_cast<std::size_t>(i)];
      ex.spawn([](Duo& du) -> sim::Task {  // client
        for (int k = 0; k < kRounds; ++k) {
          co_await du.ping.send(k);
          co_await du.pong.recv();
        }
      }(d));
      ex.spawn([](Duo& du) -> sim::Task {  // server
        for (int k = 0; k < kRounds; ++k) {
          co_await du.ping.recv();
          co_await du.pong.send(k);
        }
      }(d));
    }
    ex.run();
  }
  state.SetItemsProcessed(state.iterations() * kPairs * kRounds);
}
BENCHMARK(BM_EpollChannelPingPong);

// Bounded-channel backpressure: senders park on a full buffer and are promoted
// one slot at a time — stresses the sender waiter list and buffer slots.
static void BM_ChannelBoundedBackpressure(benchmark::State& state) {
  const int senders = static_cast<int>(state.range(0));
  constexpr int kPerSender = 50;
  for (auto _ : state) {
    sim::Simulation s;
    sim::Channel<int> ch(s, 4);
    for (int i = 0; i < senders; ++i) {
      s.spawn([](sim::Channel<int>& c) -> sim::Task {
        for (int k = 0; k < kPerSender; ++k) co_await c.send(k);
      }(ch));
    }
    s.spawn([](sim::Channel<int>& c, int total) -> sim::Task {
      for (int k = 0; k < total; ++k) co_await c.recv();
    }(ch, senders * kPerSender));
    s.run();
  }
  state.SetItemsProcessed(state.iterations() * senders * kPerSender);
}
BENCHMARK(BM_ChannelBoundedBackpressure)->Arg(64)->Arg(512);

// when_all over a wide fan-out: stresses Latch wakeups and spawn scheduling.
static void BM_LatchFanOut(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation s;
    std::vector<sim::Task> tasks;
    tasks.reserve(static_cast<std::size_t>(width));
    for (int i = 0; i < width; ++i) {
      tasks.push_back([](sim::Simulation& sim, sim::Time d) -> sim::Task {
        co_await sim.delay(d);
      }(s, i % 97));
    }
    s.spawn(sim::when_all(s, std::move(tasks)));
    s.run();
  }
  state.SetItemsProcessed(state.iterations() * width);
}
BENCHMARK(BM_LatchFanOut)->Arg(4096);

static void BM_FabricTransfer(benchmark::State& state) {
  const int messages = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation s;
    net::FabricConfig cfg;
    cfg.num_hosts = 64;
    cfg.hosts_per_leaf = 16;
    net::Fabric f(s, cfg);
    for (int i = 0; i < messages; ++i) {
      s.spawn(f.transfer(i % 32, 32 + i % 32, 1 << 20));
    }
    s.run();
  }
  state.SetItemsProcessed(state.iterations() * messages);
}
BENCHMARK(BM_FabricTransfer)->Arg(256)->Arg(4096);

// MPI matching at des_weak_xl's scale: a World of ~40k ranks (32 per host)
// is built per iteration, then every rank sends two tagged messages to its
// right neighbour and receives them from its left one in reverse order. The
// first receive parks and is matched on delivery; the second finds its
// message already queued. Items are messages.
static void BM_MpiMatchManyRanks(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  constexpr int kRanksPerHost = 32;
  std::vector<int> rank_to_host(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    rank_to_host[static_cast<std::size_t>(r)] = r / kRanksPerHost;
  }
  net::FabricConfig cfg;
  cfg.num_hosts = (ranks + kRanksPerHost - 1) / kRanksPerHost;
  cfg.hosts_per_leaf = 16;
  sim::Simulation s;
  net::Fabric f(s, cfg);
  for (auto _ : state) {
    mpi::World w(s, f, rank_to_host);
    for (int r = 0; r < ranks; ++r) {
      s.spawn([](mpi::World& wd, int me, int n) -> sim::Task {
        mpi::Envelope e;
        wd.isend(me, (me + 1) % n, 1, 8);
        wd.isend(me, (me + 1) % n, 2, 8);
        co_await wd.recv(me, (me + n - 1) % n, 2, e);
        co_await wd.recv(me, (me + n - 1) % n, 1, e);
      }(w, r, ranks));
    }
    s.run();
    benchmark::DoNotOptimize(w.pending_at(0));
  }
  state.SetItemsProcessed(state.iterations() * ranks * 2);
}
BENCHMARK(BM_MpiMatchManyRanks)->Arg(40960)->Unit(benchmark::kMillisecond);

// -------------------------------------------------------------- kernels ----

static void BM_LbmStep(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  apps::lbm::Solver solver({n, n, n}, {0.8, {1e-6, 0, 0}});
  for (auto _ : state) {
    solver.step();
    benchmark::DoNotOptimize(solver.rho().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(solver.dims().cells()));
}
BENCHMARK(BM_LbmStep)->Arg(16)->Arg(32);

static void BM_MdStep(benchmark::State& state) {
  apps::md::MdParams p;
  p.cells_per_side = static_cast<int>(state.range(0));
  apps::md::LjMd md(p);
  for (auto _ : state) {
    md.step();
    benchmark::DoNotOptimize(md.positions().data());
  }
  state.SetItemsProcessed(state.iterations() * md.num_atoms());
}
BENCHMARK(BM_MdStep)->Arg(4)->Arg(6);

static void BM_MomentAnalysis(benchmark::State& state) {
  std::vector<double> data(static_cast<std::size_t>(state.range(0)));
  common::Xoshiro256 rng(1);
  for (double& x : data) x = rng.uniform();
  for (auto _ : state) {
    apps::analysis::MomentAccumulator acc(4);
    acc.add_span(data);
    benchmark::DoNotOptimize(acc.kurtosis());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.size() * sizeof(double)));
}
BENCHMARK(BM_MomentAnalysis)->Arg(1 << 16)->Arg(1 << 20);

static void BM_MsdAnalysis(benchmark::State& state) {
  std::vector<double> now(static_cast<std::size_t>(state.range(0)) * 3);
  std::vector<double> ref(now.size());
  common::Xoshiro256 rng(2);
  for (std::size_t i = 0; i < now.size(); ++i) {
    ref[i] = rng.uniform();
    now[i] = ref[i] + rng.uniform(-0.5, 0.5);
  }
  for (auto _ : state) {
    apps::analysis::MsdAccumulator acc;
    acc.add_block(now, ref);
    benchmark::DoNotOptimize(acc.value());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MsdAnalysis)->Arg(1 << 14)->Arg(1 << 18);

static void BM_SyntheticProducer(benchmark::State& state) {
  std::vector<double> block(static_cast<std::size_t>(state.range(1)));
  const auto c = static_cast<apps::Complexity>(state.range(0));
  std::uint64_t seed = 7;
  for (auto _ : state) {
    benchmark::DoNotOptimize(apps::generate_block(c, block, seed++));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(block.size() * sizeof(double)));
}
BENCHMARK(BM_SyntheticProducer)
    ->Args({0, 1 << 16})
    ->Args({1, 1 << 16})
    ->Args({2, 1 << 14});

BENCHMARK_MAIN();
